"""Shift-register graphs: words, censuses, the letter rotation, disjoint families."""

from __future__ import annotations

import collections
import functools
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordo import debruijn
from ordo.debruijn import (
    ALPHABET,
    CENSUS_BATCH,
    ENUMERATION_CYCLE_LIMIT,
    ENUMERATION_VERTEX_LIMIT,
    ArcConflict,
    DBParams,
    DeBruijnWord,
    _cycle_letters,
    arc_conflict,
    count_hamiltonian_cycles,
    de_bruijn_graph,
    enumerate_hamiltonian_cycles,
    infer_params,
    martin,
    max_disjoint_exact,
    max_disjoint_upper_bound,
    pairwise_arc_disjoint,
    rotation_family,
    sigma,
    sigma_symbol_map,
    underlying_simple_graph,
    word_decode,
    word_encode,
    word_of_vertex,
)
from ordo.graphio import graph_to_dot
from ordo.graphs import Digraph, SimpleGraph
from ordo.ramsey import exhaustive_ramsey_check
from ordo.report import (
    REFERENCE_BLOCK_5_2,
    REFERENCE_CYCLES_2_3,
    REFERENCE_CYCLES_3_2,
    REFERENCE_SEEDS,
)
from ordo.seedsearch import rotation_seed_search


def reference_cycles(params: DBParams):
    """Letter tuples of every Hamiltonian cycle, in lexicographic order,
    by a plain DFS over the whole tree: the census oracle."""
    n, m = params.n, params.m
    total = params.vertex_count
    base = n ** (m - 1)
    visited = bytearray(total)
    visited[0] = 1
    syms: list[int] = []
    stack = [[0, 0]]  # frames of [vertex, next letter to try]
    while stack:
        frame = stack[-1]
        v, s = frame
        if s == n:
            stack.pop()
            if stack:
                visited[v] = 0
                syms.pop()
            continue
        frame[1] = s + 1
        w = (v % base) * n + s
        if visited[w]:
            continue
        if len(stack) + 1 == total:
            if w % base == 0:
                yield ((0,) * m + tuple(syms) + (s,))[:total]
            continue
        visited[w] = 1
        syms.append(s)
        stack.append([w, 0])


def reference_arcs(word: DeBruijnWord) -> frozenset[tuple[int, int]]:
    """The n^m arcs the cycle traverses, as (tail, head) vertex pairs,
    by walking its windows one vertex at a time: the arc-set oracle."""
    n, m = word.params.n, word.params.m
    total = word.params.vertex_count
    base = n ** (m - 1)
    cycle = [0]
    for i in range(1, total):
        cycle.append((cycle[-1] % base) * n + word.letters[(i + m - 1) % total])
    return frozenset((cycle[i], cycle[(i + 1) % total]) for i in range(total))


def reference_conflict(words) -> ArcConflict | None:
    """arc_conflict by a pairwise scan over the oracle's arc sets."""
    for w in words[1:]:
        if w.params != words[0].params:
            raise ValueError("cycles live in different graphs")
    arc_sets = [reference_arcs(w) for w in words]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            shared = arc_sets[i] & arc_sets[j]
            if shared:
                return ArcConflict(i, j, shared)
    return None


def reference_de_bruijn_graph(params: DBParams) -> Digraph:
    """B(n, m) from its list of n^(m+1) arc pairs, one per vertex and letter."""
    n = params.n
    base = n ** (params.m - 1)
    arcs = [(v, (v % base) * n + s) for v in range(params.vertex_count) for s in range(n)]
    return Digraph(params.vertex_count, arcs)


def lyndon_cycle(n: int, m: int) -> tuple[int, ...]:
    """The lexicographically first cycle: the Lyndon words of length
    dividing m, concatenated in order (Fredricksen-Kessler-Maiorana)."""
    out: list[int] = []
    a = [0] * (m + 1)

    def extend(t: int, p: int) -> None:
        if t > m:
            if m % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        for j in range(a[t - p] + 1, n):
            a[t] = j
            extend(t + 1, t)

    extend(1, 1)
    return tuple(out)


SEED_TEXTS = [(nm, text) for nm, texts in sorted(REFERENCE_SEEDS.items()) for text in texts]

# small graphs whose whole census the properties below draw words from
CENSUS_PARAMS = (DBParams(2, 3), DBParams(2, 4), DBParams(3, 2), DBParams(4, 2), DBParams(6, 1))


@functools.lru_cache(maxsize=None)
def census(params: DBParams) -> list[DeBruijnWord]:
    return list(enumerate_hamiltonian_cycles(params))


@st.composite
def census_words(draw, params: DBParams | None = None) -> DeBruijnWord:
    words = census(params or draw(st.sampled_from(CENSUS_PARAMS)))
    return words[draw(st.integers(0, len(words) - 1))]


@st.composite
def near_words(draw, params: DBParams | None = None) -> tuple[DBParams, tuple[int, ...]]:
    """A census word's letters, as they are or after one edit: a letter
    set to any value from -1 to n, two letters swapped, a letter dropped
    or inserted, or the word rotated.  Most edits make the word invalid."""
    word = draw(census_words(params))
    n, total = word.params.n, word.params.vertex_count
    letters = list(word.letters)
    i = draw(st.integers(0, total - 1))
    j = draw(st.integers(0, total - 1))
    edit = draw(st.sampled_from(("keep", "set", "swap", "drop", "insert", "rotate")))
    if edit == "set":
        letters[i] = draw(st.integers(-1, n))
    elif edit == "swap":
        letters[i], letters[j] = letters[j], letters[i]
    elif edit == "drop":
        del letters[i]
    elif edit == "insert":
        letters.insert(i, draw(st.integers(0, n - 1)))
    elif edit == "rotate":
        letters = letters[i:] + letters[:i]
    return word.params, tuple(letters)


def reference_word_error(params: DBParams, letters: tuple[int, ...]) -> str | None:
    """Why letters are not a cycle word of params, by walking its windows
    one at a time: the word-check oracle.  None when they are one."""
    n, m = params.n, params.m
    total = params.vertex_count
    if len(letters) != total:
        return f"cyclic word must have {total} letters, got {len(letters)}"
    for c in letters:
        if not 0 <= c < n:
            return f"letter {c} outside 0..{n - 1}"
    if any(letters[:m]):
        return "canonical rotation must start with the all-zero window"
    base = n ** (m - 1)
    window = 0  # value of letters[0..m-1]
    seen = bytearray(total)
    seen[0] = 1
    for i in range(1, total):
        window = (window % base) * n + letters[(i + m - 1) % total]
        if seen[window]:
            return f"window repeated at position {i}"
        seen[window] = 1
    return None


def reference_rotation(cyclic: list[int], m: int) -> tuple[int, ...] | None:
    """The rotation of a cyclic word that starts at its first 0^m
    window, or None when it has none, by testing every cyclic position:
    the decoder's rotation oracle."""
    total = len(cyclic)
    for i in range(total):
        if all(cyclic[(i + j) % total] == 0 for j in range(m)):
            return tuple(cyclic[i:] + cyclic[:i])
    return None


def reference_decode(text: str, params: DBParams) -> DeBruijnWord:
    """word_decode with its rotation found by reference_rotation: the
    same checks in the same order, so the same word or the same error."""
    n, m = params.n, params.m
    total = params.vertex_count
    if len(text) != params.linear_length:
        raise ValueError(
            f"bad length: B({n},{m}) linear form has {params.linear_length} letters, got {len(text)}"
        )
    letters = []
    for ch in text:
        value = ALPHABET.find(ch)
        if not 0 <= value < n:
            raise ValueError(f"letter {ch!r} outside the {n}-letter alphabet")
        letters.append(value)
    if m > 1 and letters[total:] != letters[: m - 1]:
        raise ValueError("linear form must end with its own first m-1 letters")
    rotated = reference_rotation(letters[:total], m)
    if rotated is None:
        raise ValueError("no all-zero window; not a full cycle")
    return DeBruijnWord(params, rotated)


def decode_outcome(decode, text: str, params: DBParams):
    """The decoded word, or the message of the ValueError raised."""
    try:
        return decode(text, params)
    except ValueError as exc:
        return "ValueError", str(exc)


# long words and one-letter windows, beside the census graphs
MARTIN_PARAMS = (DBParams(31, 2), DBParams(2, 9), DBParams(5, 3), DBParams(2, 1), DBParams(7, 1))


@st.composite
def linear_forms(draw) -> tuple[DBParams, str]:
    """A census or martin word in linear form, rotated by any shift or by
    one that puts the 0^m window across the seam, then kept or corrupted:
    a letter changed to another of 0..n (n lies outside the alphabet), a
    closing letter changed (m > 1), or every 0^m window cleared with the
    closing letters kept."""
    if draw(st.booleans()):
        word = draw(census_words())
    else:
        word = martin(draw(st.sampled_from(MARTIN_PARAMS)))
    params = word.params
    n, m, total = params.n, params.m, params.vertex_count
    r = draw(st.one_of(st.integers(0, total - 1), st.integers(1, max(1, m - 1))))
    cyclic = list(word.letters[r:] + word.letters[:r])
    edit = draw(st.sampled_from(("keep", "flip", "closing", "clear")))
    if edit == "clear":
        # letters only turn nonzero, so a window passed stays cleared
        for i in range(total):
            if all(cyclic[(i + j) % total] == 0 for j in range(m)):
                cyclic[(i + draw(st.integers(0, m - 1))) % total] = draw(st.integers(1, n - 1))
    letters = cyclic + cyclic[: m - 1]
    if edit == "flip":
        i = draw(st.integers(0, len(letters) - 1))
        letters[i] = draw(st.integers(0, n).filter(lambda c: c != letters[i]))
    elif edit == "closing" and m > 1:
        i = draw(st.integers(total, len(letters) - 1))
        letters[i] = draw(st.integers(0, n - 1).filter(lambda c: c != letters[i]))
    return params, "".join(ALPHABET[c] for c in letters)


def constructor_error(params: DBParams, letters: tuple[int, ...]) -> str | None:
    """The checking constructor's error message, or None if it accepts."""
    try:
        DeBruijnWord(params, letters)
    except ValueError as exc:
        return str(exc)
    return None


def enumerable_params() -> list[DBParams]:
    """Every B(n, m) the enumeration guard admits."""
    out = []
    for n in range(2, 37):
        m = 1
        while n**m <= ENUMERATION_VERTEX_LIMIT:
            p = DBParams(n, m)
            if count_hamiltonian_cycles(p) <= ENUMERATION_CYCLE_LIMIT:
                out.append(p)
            m += 1
    return out


class TestParams:
    def test_counts(self):
        p = DBParams(3, 2)
        assert p.vertex_count == 9
        assert p.linear_length == 10
        assert DBParams(2, 4).linear_length == 19
        assert DBParams(10, 1).vertex_count == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            DBParams(1, 3)
        with pytest.raises(ValueError):
            DBParams(2, 0)
        with pytest.raises(ValueError):
            DBParams(37, 1)


class TestWordValidation:
    def test_accepts_valid_cycle(self):
        w = DeBruijnWord(DBParams(2, 2), (0, 0, 1, 1))
        assert reference_arcs(w) == {(0, 1), (1, 3), (3, 2), (2, 0)}
        assert str(w) == "00110"

    def test_rejects_bad_words(self):
        p = DBParams(2, 2)
        with pytest.raises(ValueError, match="4 letters"):
            DeBruijnWord(p, (0, 0, 1))
        with pytest.raises(ValueError, match="outside 0..1"):
            DeBruijnWord(p, (0, 0, 2, 1))
        with pytest.raises(ValueError, match="all-zero window"):
            DeBruijnWord(p, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="window repeated"):
            DeBruijnWord(DBParams(2, 3), (0, 0, 0, 1, 0, 0, 1, 1))

    @settings(max_examples=500, derandomize=True, database=None)
    @given(near_words())
    def test_batch_check_agrees_with_the_constructor(self, drawn):
        params, letters = drawn
        assert constructor_error(params, letters) == reference_word_error(params, letters)

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.data())
    def test_mixed_batch_raises_the_constructors_error(self, data):
        params = data.draw(st.sampled_from(CENSUS_PARAMS))
        batch = [w.letters for w in data.draw(st.lists(census_words(params), max_size=30))]
        bad = data.draw(
            st.lists(
                near_words(params).filter(lambda d: reference_word_error(*d) is not None),
                min_size=1,
                max_size=3,
            )
        )
        for _, letters in bad:
            batch.insert(data.draw(st.integers(0, len(batch))), letters)
        first_bad = next(t for t in batch if reference_word_error(params, t) is not None)
        with pytest.raises(ValueError) as caught:
            debruijn._checked_words(params, batch)
        assert str(caught.value) == reference_word_error(params, first_bad)

    @pytest.mark.parametrize("letter", [1.5, "1", None, 0.0])
    def test_letters_that_are_no_int_are_refused(self, letter):
        valid = martin(DBParams(3, 2)).letters
        for i in (0, 1, 5, len(valid) - 1):
            letters = valid[:i] + (letter,) + valid[i + 1 :]
            with pytest.raises(TypeError):
                DeBruijnWord(DBParams(3, 2), letters)
            with pytest.raises(TypeError):
                debruijn._checked_words(DBParams(3, 2), [valid, letters])

    @pytest.mark.parametrize("letter", [-300, -1, 3, 256, 2**62, 10**30])
    def test_letters_out_of_range_are_named(self, letter):
        params = DBParams(3, 2)
        valid = martin(params).letters
        for i in (0, 4, len(valid) - 1):
            letters = valid[:i] + (letter,) + valid[i + 1 :]
            expected = f"letter {letter} outside 0..2"
            assert reference_word_error(params, letters) == expected
            with pytest.raises(ValueError) as caught:
                DeBruijnWord(params, letters)
            assert str(caught.value) == expected
            with pytest.raises(ValueError) as caught:
                debruijn._checked_words(params, [valid, letters, (5,) * 9])
            assert str(caught.value) == expected

    def test_valid_batches_skip_the_constructor(self, monkeypatch):
        seed = martin(DBParams(5, 2))
        batches = {p: [w.letters for w in census(p)] for p in CENSUS_PARAMS}

        def refuse(word):
            raise AssertionError("constructor used")

        monkeypatch.setattr(DeBruijnWord, "__post_init__", refuse)
        for params, batch in batches.items():
            assert len(debruijn._checked_words(params, batch)) == len(batch)
        assert len(rotation_family(seed)) == 4

    def test_reference_arcs_visit_everything_once(self):
        for text in REFERENCE_CYCLES_3_2:
            arcs = reference_arcs(word_decode(text, DBParams(3, 2)))
            assert sorted(u for u, _ in arcs) == list(range(9))
            assert sorted(v for _, v in arcs) == list(range(9))


class TestEncodeDecode:
    def test_round_trip(self):
        p = DBParams(3, 2)
        for text in REFERENCE_CYCLES_3_2:
            assert word_encode(word_decode(text, p)) == text
        for text in REFERENCE_CYCLES_2_3:
            assert word_encode(word_decode(text, DBParams(2, 3))) == text

    def test_decode_canonicalizes_rotations(self):
        p = DBParams(2, 3)
        w = word_decode("0001011100", p)
        # rotate the cyclic part by 3 and rebuild a linear form
        cyclic = [int(c) for c in "0001011100"[:8]]
        rotated = cyclic[3:] + cyclic[:3]
        text = "".join(map(str, rotated + rotated[:2]))
        assert word_encode(word_decode(text, p)) == word_encode(w)

    @settings(max_examples=300, derandomize=True, database=None)
    @given(census_words(), st.integers(0, 10**6))
    def test_decode_of_any_rotation_is_canonical(self, word, shift):
        m, total = word.params.m, word.params.vertex_count
        r = shift % total
        cyclic = word.letters[r:] + word.letters[:r]
        text = "".join(ALPHABET[c] for c in cyclic + cyclic[: m - 1])
        assert word_decode(text, word.params) == word

    @settings(max_examples=400, derandomize=True, database=None)
    @given(linear_forms())
    def test_decode_matches_the_rotation_oracle(self, form):
        params, text = form
        assert decode_outcome(word_decode, text, params) == decode_outcome(
            reference_decode, text, params
        )

    def test_zero_window_across_the_seam(self):
        # rotating by r < m puts the only 0^m window at cyclic position
        # total - r, so it runs into the repeated first m-1 letters
        words = [word_decode("0011220210", DBParams(3, 2)), martin(DBParams(2, 9))]
        words += [martin(DBParams(n, m)) for n, m in ((2, 3), (4, 3), (31, 2))]
        for word in words:
            m, total = word.params.m, word.params.vertex_count
            for r in range(1, m):
                cyclic = word.letters[r:] + word.letters[:r]
                text = "".join(ALPHABET[c] for c in cyclic + cyclic[: m - 1])
                assert text.find("0" * m) == total - r
                assert word_decode(text, word.params) == word
        assert word_encode(word_decode("0112202100", DBParams(3, 2))) == "0011220210"

    def test_decode_errors(self):
        p = DBParams(2, 2)
        with pytest.raises(ValueError, match="bad length"):
            word_decode("0011", p)
        with pytest.raises(ValueError, match="alphabet"):
            word_decode("00211", p)
        with pytest.raises(ValueError, match="end with its own first"):
            word_decode("00111", p)
        with pytest.raises(ValueError, match="no all-zero window"):
            word_decode("11011", p)
        with pytest.raises(ValueError, match="window repeated"):
            word_decode("0001001100", DBParams(2, 3))


class TestInferParams:
    def test_recovers_parameters(self):
        assert infer_params("01") == DBParams(2, 1)
        for text in REFERENCE_CYCLES_3_2:
            assert infer_params(text) == DBParams(3, 2)
        for text in REFERENCE_CYCLES_2_3:
            assert infer_params(text) == DBParams(2, 3)
        assert infer_params(REFERENCE_BLOCK_5_2[0]) == DBParams(5, 2)

    def test_errors(self):
        with pytest.raises(ValueError, match="unrecognized letter"):
            infer_params("01!")
        with pytest.raises(ValueError, match="two distinct letters"):
            infer_params("0000")
        with pytest.raises(ValueError, match="matches no"):
            infer_params("0101")


class TestGraphShape:
    def test_vertex_words(self):
        p = DBParams(3, 2)
        assert word_of_vertex(0, p) == "00"
        assert word_of_vertex(5, p) == "12"
        assert word_of_vertex(8, p) == "22"
        with pytest.raises(ValueError, match="outside"):
            word_of_vertex(9, p)

    def test_graph_counts(self):
        for n, m in ((2, 3), (3, 2), (2, 4), (4, 1)):
            p = DBParams(n, m)
            d = de_bruijn_graph(p)
            assert d.vertex_count == n**m
            assert d.arc_count == n ** (m + 1)
            assert len(d.loops()) == n
            assert all(d.out_degree(v) == n for v in range(d.vertex_count))
            heads = collections.Counter(v for _, v in d.arcs)
            assert heads == dict.fromkeys(range(d.vertex_count), n)

    def test_rows_match_the_arc_list_construction(self):
        small = [
            DBParams(n, m) for n in range(2, 37) for m in range(1, 7) if n**m <= 64
        ]
        for p in small + [DBParams(2, 10)]:
            d = reference_de_bruijn_graph(p)
            assert de_bruijn_graph(p) == d, p
            edges = [(u, v) for u, v in d.arcs if u != v]
            assert underlying_simple_graph(p) == SimpleGraph(d.vertex_count, edges), p

    def test_loops_are_constant_words(self):
        p = DBParams(3, 2)
        loops = de_bruijn_graph(p).loops()
        assert {word_of_vertex(v, p) for v in loops} == {"00", "11", "22"}

    def test_underlying_simple_graph(self):
        g = underlying_simple_graph(DBParams(3, 2))
        assert g.vertex_count == 9
        assert g.edge_count == 21

    def test_flower_dot(self):
        # the flower view is the underlying simple graph, drawn by graphio
        # with each vertex named by its word
        p = DBParams(3, 2)
        g = underlying_simple_graph(p)
        names = [word_of_vertex(v, p) for v in range(g.vertex_count)]
        dot = graph_to_dot(g, names=names, title="B_3_2")
        assert dot.startswith("graph B_3_2")
        assert '"00" -- "01"' in dot
        assert dot.count("--") == 21


class TestArcs:
    def test_reference_arcs_are_graph_arcs(self):
        for text in REFERENCE_CYCLES_3_2[:4]:
            w = word_decode(text, DBParams(3, 2))
            arcs = reference_arcs(w)
            assert len(arcs) == 9
            assert all(u != v for u, v in arcs)  # loops never appear
            graph_arcs = de_bruijn_graph(DBParams(3, 2)).arcs
            assert arcs <= graph_arcs


class TestSizeGuards:
    def test_refused_before_allocating(self):
        # B(36, 8) would need about 10^23 bytes of bitsets; a greedy walk
        # on B(2, 30) a 2^30-byte seen table
        refused = (
            (de_bruijn_graph, DBParams(36, 8), "graph limit"),
            (de_bruijn_graph, DBParams(2, 15), "graph limit"),
            (underlying_simple_graph, DBParams(5, 7), "graph limit"),
            (martin, DBParams(2, 30), "martin limit"),
            (martin, DBParams(2, 21), "martin limit"),
            (martin, DBParams(36, 4), "martin limit"),
            (martin, DBParams(2, 10**9), "martin limit"),
        )
        tracemalloc.start()
        try:
            for fn, params, message in refused:
                with pytest.raises(ValueError, match=message):
                    fn(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_limits_admit_what_the_workbench_uses(self):
        assert de_bruijn_graph(DBParams(2, 10)).vertex_count == 1024
        assert len(martin(DBParams(2, 12)).letters) == 4096


class TestMartin:
    def test_frozen_outputs(self):
        assert word_encode(martin(DBParams(2, 1))) == "01"
        assert word_encode(martin(DBParams(2, 3))) == "0001110100"
        assert word_encode(martin(DBParams(3, 2))) == "0022120110"
        assert word_encode(martin(DBParams(2, 4))) == "0000111101100101000"
        assert word_encode(martin(DBParams(4, 2))) == "00332313022120110"

    def test_always_a_valid_cycle(self):
        for n, m in ((2, 5), (3, 3), (5, 2), (2, 8), (6, 2)):
            w = martin(DBParams(n, m))
            assert len(str(w)) == DBParams(n, m).linear_length


class TestCensus:
    def test_closed_form(self):
        assert count_hamiltonian_cycles(DBParams(2, 2)) == 1
        assert count_hamiltonian_cycles(DBParams(2, 3)) == 2
        assert count_hamiltonian_cycles(DBParams(2, 4)) == 16
        assert count_hamiltonian_cycles(DBParams(3, 2)) == 24
        assert count_hamiltonian_cycles(DBParams(3, 3)) == 373248
        assert count_hamiltonian_cycles(DBParams(4, 2)) == 20736

    def test_count_digit_limit(self):
        # (6!)^(6^4) has about 3,700 digits and still prints;
        # (2!)^(2^14) has about 4,900, over the int-to-str limit
        assert len(str(count_hamiltonian_cycles(DBParams(6, 5)))) > 3_600
        for n, m in ((2, 15), (2, 16), (5, 10), (2, 40), (36, 4)):
            with pytest.raises(ValueError, match="count limit"):
                count_hamiltonian_cycles(DBParams(n, m))

    def test_enumeration_matches_count(self):
        for n, m in ((2, 2), (2, 3), (2, 4), (3, 2)):
            p = DBParams(n, m)
            words = list(enumerate_hamiltonian_cycles(p))
            assert len(words) == count_hamiltonian_cycles(p)
            texts = [word_encode(w) for w in words]
            assert texts == sorted(texts)  # lexicographic output order
            assert len(set(texts)) == len(texts)

    def test_reference_lists(self):
        texts = [word_encode(w) for w in enumerate_hamiltonian_cycles(DBParams(3, 2))]
        assert set(texts) == set(REFERENCE_CYCLES_3_2)
        assert texts[0] == "0010211220"
        texts = [word_encode(w) for w in enumerate_hamiltonian_cycles(DBParams(2, 3))]
        assert tuple(texts) == REFERENCE_CYCLES_2_3

    def test_martin_word_is_enumerated(self):
        texts = [word_encode(w) for w in enumerate_hamiltonian_cycles(DBParams(3, 2))]
        assert word_encode(martin(DBParams(3, 2))) in texts

    def test_stream_matches_plain_dfs(self):
        # every admitted case but (3,3), among them m = 1 and the tiny
        # graphs the memo answers from the root
        cases = [p for p in enumerable_params() if p != DBParams(3, 3)]
        assert {(p.n, p.m) for p in cases} == {
            (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2),
            (5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (10, 1),
        }
        for p in cases:
            fast = enumerate_hamiltonian_cycles(p)
            count = 0
            for word, letters in itertools.zip_longest(fast, reference_cycles(p)):
                assert word is not None and letters is not None, (p, count)
                assert word.letters == letters, (p, count)
                count += 1
            assert count == count_hamiltonian_cycles(p)

    def test_three_three_census(self):
        # each word is validated before it is yielded, so a strictly
        # rising stream of the closed-form length is the full set, in order
        p = DBParams(3, 3)
        count = 0
        first = prev = None
        for word in enumerate_hamiltonian_cycles(p):
            if prev is None:
                first = word.letters
            else:
                assert word.letters > prev
            prev = word.letters
            count += 1
        assert count == 373_248 == count_hamiltonian_cycles(p)
        assert first == lyndon_cycle(3, 3)
        assert prev == martin(p).letters

    def test_three_three_census_memory(self, peak_rss_growth):
        # the memo holds each entry's tails as one bytes object.  Draining
        # the census raises a fresh process's peak RSS by about 4.6 MB; a
        # list of tuples per entry at the same depth raises it by about
        # 13 MB.
        out = peak_rss_growth(
            "from ordo.debruijn import DBParams, enumerate_hamiltonian_cycles",
            "print(sum(1 for _ in enumerate_hamiltonian_cycles(DBParams(3, 3))))",
        )
        assert int(out[0]) == 373_248
        assert int(out[1]) < 6_000_000

    def test_every_word_is_validated(self, monkeypatch):
        # a kernel fault is caught in whichever batch it lands: the
        # first, a middle one or the short last one
        p = DBParams(4, 2)
        good = list(_cycle_letters(p))
        assert len(good) > 2 and len(good[-1]) < CENSUS_BATCH
        for at in (0, len(good) // 2, len(good) - 1):
            batches = [list(rows) for rows in good]
            batches[at].insert(len(batches[at]) // 2, (0,) * 16)
            monkeypatch.setattr(debruijn, "_cycle_letters", lambda params, b=batches: iter(b))
            with pytest.raises(ValueError, match="window repeated at position 1"):
                list(enumerate_hamiltonian_cycles(p))

    def test_batches_are_not_reused(self):
        # every batch kept before the next is drawn: a batch cleared or
        # refilled in place after its yield would show here.  (3,3) and
        # (10,1), the two largest, are left to test_stream_matches_plain_dfs
        for p in enumerable_params():
            if p in (DBParams(3, 3), DBParams(10, 1)):
                continue
            batches = list(_cycle_letters(p))
            assert all(len(rows) >= CENSUS_BATCH for rows in batches[:-1]), p
            assert [t for rows in batches for t in rows] == list(reference_cycles(p)), p

    def test_searches_leave_no_reference_cycle(self):
        # each recursive search reaches itself through its closure; left as
        # a cycle, its memo or tables would live on until a collection
        searches = {
            "census (3,2)": lambda: list(enumerate_hamiltonian_cycles(DBParams(3, 2))),
            "census (4,2)": lambda: list(enumerate_hamiltonian_cycles(DBParams(4, 2))),
            "census dropped after its first batch": lambda: list(
                itertools.islice(enumerate_hamiltonian_cycles(DBParams(4, 2)), CENSUS_BATCH)
            ),
            "max disjoint (3,2)": lambda: max_disjoint_exact(DBParams(3, 2)),
            "ramsey (3,4,8)": lambda: exhaustive_ramsey_check(3, 4, 8),
            "seed search (3,2)": lambda: rotation_seed_search(DBParams(3, 2), find_all=True),
        }
        for name, search in searches.items():
            gc.collect()
            gc.disable()
            try:
                search()
                assert gc.collect() == 0, name
            finally:
                gc.enable()

    def test_guards(self):
        with pytest.raises(ValueError, match="n\\^m must be"):
            list(enumerate_hamiltonian_cycles(DBParams(2, 5)))
        with pytest.raises(ValueError, match="more than"):
            list(enumerate_hamiltonian_cycles(DBParams(5, 2)))


class TestSigma:
    def test_symbol_maps(self):
        assert sigma_symbol_map(2) == (0, 1)
        assert sigma_symbol_map(3) == (0, 2, 1)
        assert sigma_symbol_map(5) == (0, 2, 3, 4, 1)
        with pytest.raises(ValueError):
            sigma_symbol_map(1)

    def test_permutation_order(self):
        # fixing 0 and cycling the rest: n-1 applications come back
        for n in range(2, 8):
            smap = sigma_symbol_map(n)
            assert sorted(smap) == list(range(n))
            assert smap[0] == 0
            value = 1
            for _ in range(n - 1):
                value = smap[value]
            assert value == 1

    def test_closes_on_reference_cycles(self):
        reference = set(REFERENCE_CYCLES_3_2)
        for text in REFERENCE_CYCLES_3_2:
            w = word_decode(text, DBParams(3, 2))
            image = sigma(w)
            assert word_encode(image) in reference
            assert word_encode(sigma(image)) == text  # order 2 when n = 3

    def test_identity_for_two_letters(self):
        for text in REFERENCE_CYCLES_2_3:
            w = word_decode(text, DBParams(2, 3))
            assert sigma(w) == w


class TestRotationFamily:
    def test_reference_family(self):
        seed = word_decode("0011220210", DBParams(3, 2))
        family = rotation_family(seed)
        assert [word_encode(w) for w in family] == ["0011220210", "0022110120"]
        assert pairwise_arc_disjoint(family)

    def test_block_family(self):
        seed = word_decode(REFERENCE_BLOCK_5_2[0], DBParams(5, 2))
        family = rotation_family(seed)
        assert tuple(word_encode(w) for w in family) == REFERENCE_BLOCK_5_2
        assert pairwise_arc_disjoint(family)

    def test_size_is_alphabet_minus_one(self):
        for n, m in ((2, 3), (3, 2), (5, 2)):
            w = martin(DBParams(n, m))
            assert len(rotation_family(w)) == n - 1


def reference_family(seed: DeBruijnWord) -> list[DeBruijnWord]:
    """The rotation family one sigma at a time, each image checked by
    the constructor."""
    family = [seed]
    for _ in range(seed.params.n - 2):
        family.append(sigma(family[-1]))
    return family


def unchecked_word(params: DBParams, letters: tuple[int, ...]) -> DeBruijnWord:
    """A word built past the constructor's checks, as a corrupted one."""
    word = object.__new__(DeBruijnWord)
    object.__setattr__(word, "params", params)
    object.__setattr__(word, "letters", letters)
    return word


def family_outcome(build, seed: DeBruijnWord):
    """The members' letters, or the error: its message for a ValueError,
    its type for anything else."""
    try:
        return [w.letters for w in build(seed)]
    except ValueError as exc:
        return "ValueError", str(exc)
    except (IndexError, AssertionError) as exc:
        return type(exc).__name__


@st.composite
def word_lists(draw) -> list[DeBruijnWord]:
    """Cycles to test for shared arcs: part of a seed's rotation family,
    which is disjoint, perhaps with one more cycle of the same graph, or
    census words of one graph; now and then a word of another graph."""
    if draw(st.booleans()):
        (n, m), text = draw(st.sampled_from(SEED_TEXTS))
        family = rotation_family(word_decode(text, DBParams(n, m)))
        words = [w for w in family if draw(st.booleans())]
        if draw(st.booleans()):
            extra = draw(st.sampled_from([martin(DBParams(n, m))] + family))
            words.insert(draw(st.integers(0, len(words))), extra)
    else:
        params = draw(st.sampled_from(CENSUS_PARAMS))
        words = draw(st.lists(census_words(params), max_size=4))
    if draw(st.integers(0, 4)) == 0:
        words.insert(draw(st.integers(0, len(words))), draw(census_words()))
    return words


def conflict_outcome(find, words):
    """The conflict found, or the message of the ValueError raised."""
    try:
        return find(words)
    except ValueError as exc:
        return "ValueError", str(exc)


class TestFamilyBatchCheck:
    @settings(max_examples=300, derandomize=True, database=None)
    @given(near_words())
    def test_agrees_with_one_sigma_at_a_time(self, drawn):
        # a corrupted seed that still starts at 0^m: every image carries
        # the fault, and the first one raises the constructor's message
        params, letters = drawn
        if letters[: params.m] != (0,) * params.m:
            return
        seed = unchecked_word(params, letters)
        assert family_outcome(rotation_family, seed) == family_outcome(reference_family, seed)

    def test_every_census_word(self):
        for params in (DBParams(2, 4), DBParams(3, 2), DBParams(6, 1), DBParams(4, 3)):
            words = census(params) if params.vertex_count < 64 else [martin(params)]
            for w in words:
                assert rotation_family(w) == reference_family(w)

    def test_corrupted_seed_raises(self):
        seed = unchecked_word(DBParams(3, 2), (0, 0, 1, 1, 2, 2, 0, 1, 2))
        with pytest.raises(ValueError, match="window repeated at position 6"):
            rotation_family(seed)
        seed = unchecked_word(DBParams(4, 2), martin(DBParams(4, 2)).letters[:-1])
        with pytest.raises(ValueError, match="must have 16 letters, got 15"):
            rotation_family(seed)

    @settings(max_examples=300, derandomize=True, database=None)
    @given(word_lists())
    def test_disjointness_agrees_with_the_pairwise_scan(self, words):
        try:
            expected = arc_conflict(words) is None
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                pairwise_arc_disjoint(words)
        else:
            assert pairwise_arc_disjoint(words) is expected


def reference_windows(columns: np.ndarray, n: int, m: int) -> np.ndarray:
    """_windows by a fresh sum per window letter, kept as the oracle."""
    windows = columns
    for j in range(1, m):
        windows = windows * n + np.concatenate((columns[j:], columns[:j]))
    return windows


class TestWindows:
    @pytest.mark.parametrize("n, m, words", [
        (31, 2, 29),  # wide: a (31,2) rotation family
        (4, 3, 288),
        (3, 2, 2),  # narrow
        (2, 11, 2),
        (5, 2, 1),  # single words
        (2, 4, 1),
        (6, 1, 1),
    ])
    def test_equal_to_the_fresh_sums(self, n, m, words):
        rng = np.random.default_rng(n * 100 + m)
        columns = rng.integers(0, n, size=(n**m, words)).astype(np.int64)
        before = columns.copy()
        for width in (m, m + 1):  # windows of vertices, and of arcs
            windows = debruijn._windows(columns, n, width)
            assert np.array_equal(windows, reference_windows(columns, n, width))
            assert windows is not columns
        assert np.array_equal(columns, before)
        word = columns[:, 0]  # one word as a 1-d array
        assert np.array_equal(debruijn._windows(word, n, m), reference_windows(word, n, m))


class TestConflicts:
    def test_reference_pair_shares_two_arcs(self):
        p = DBParams(3, 2)
        a = word_decode("0010211220", p)
        b = word_decode("0020122110", p)
        conflict = arc_conflict([a, b])
        assert conflict is not None
        assert (conflict.first, conflict.second) == (0, 1)
        names = {
            f"{word_of_vertex(u, p)}->{word_of_vertex(v, p)}"
            for u, v in conflict.shared
        }
        assert names == {"12->22", "21->11"}
        assert not pairwise_arc_disjoint([a, b])

    @settings(max_examples=300, derandomize=True, database=None)
    @given(word_lists())
    def test_agrees_with_the_reference_scan(self, words):
        assert conflict_outcome(arc_conflict, words) == conflict_outcome(
            reference_conflict, words
        )

    def test_self_conflict_is_everything(self):
        w = word_decode("0010211220", DBParams(3, 2))
        conflict = arc_conflict([w, w])
        assert conflict is not None and len(conflict.shared) == 9

    def test_mixed_parameters_rejected(self):
        a = martin(DBParams(3, 2))
        b = martin(DBParams(2, 3))
        with pytest.raises(ValueError, match="different graphs"):
            arc_conflict([a, b])

    def test_disjoint_family_has_no_conflict(self):
        family = rotation_family(word_decode("0011220210", DBParams(3, 2)))
        assert arc_conflict(family) is None


class TestMaxDisjoint:
    def test_upper_bound(self):
        assert max_disjoint_upper_bound(2) == 1
        assert max_disjoint_upper_bound(3) == 2
        assert max_disjoint_upper_bound(6) == 5
        with pytest.raises(ValueError):
            max_disjoint_upper_bound(1)

    def test_exact_small_cases(self):
        size, witness = max_disjoint_exact(DBParams(3, 2))
        assert size == 2 == max_disjoint_upper_bound(3)
        assert pairwise_arc_disjoint(witness)
        size, witness = max_disjoint_exact(DBParams(2, 3))
        assert size == 1 == max_disjoint_upper_bound(2)
        size, witness = max_disjoint_exact(DBParams(2, 4))
        assert size == 1
        assert word_encode(witness[0]) == "0000100110101111000"

    def test_witness_against_brute_force(self):
        # the lexicographically first family of the largest size, found
        # by trying every combination of cycles in order; in B(4,1) and
        # B(5,1) some pairs of cycles share exactly one arc
        for params in (DBParams(3, 2), DBParams(2, 4), DBParams(4, 1), DBParams(5, 1)):
            cycles = list(enumerate_hamiltonian_cycles(params))
            arcs = [reference_arcs(w) for w in cycles]
            best: tuple[int, ...] = ()
            for size in itertools.count(1):
                family = next(
                    (
                        combo
                        for combo in itertools.combinations(range(len(cycles)), size)
                        if all(not arcs[a] & arcs[b] for a, b in itertools.combinations(combo, 2))
                    ),
                    None,
                )
                if family is None:
                    break
                best = family
            assert max_disjoint_exact(params) == (len(best), [cycles[i] for i in best])

    def test_meets_half_floor(self):
        for n, m in ((2, 2), (2, 3), (3, 2)):
            size, _ = max_disjoint_exact(DBParams(n, m))
            assert size >= n // 2

    def test_cycle_limit(self):
        with pytest.raises(ValueError, match="disjointness limit"):
            max_disjoint_exact(DBParams(4, 2))

    def test_limits_checked_before_enumerating(self, monkeypatch):
        def refuse(params):
            raise AssertionError("enumerated before checking the limits")

        monkeypatch.setattr(debruijn, "enumerate_hamiltonian_cycles", refuse)
        for n, m, message in (
            (4, 2, "disjointness limit"),
            (3, 3, "disjointness limit"),
            (5, 2, "enumeration limit"),
        ):
            with pytest.raises(ValueError, match=message):
                max_disjoint_exact(DBParams(n, m))
