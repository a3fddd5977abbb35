"""De Bruijn graphs and their directed Hamiltonian cycles.

B(n, m) has the n^m length-m words over 0..n-1 as vertices and an arc
u -> v whenever the last m-1 letters of u equal the first m-1 of v
(append one letter, drop the first).  A directed Hamiltonian cycle is
the same thing as a cyclic word of n^m letters in which every length-m
window occurs exactly once; such cyclic words are the unit of work
here.

Representation: a vertex is the base-n value of its word, so following
the arc that appends letter s is (v % n^(m-1)) * n + s.  That arc is
numbered a = v * n + s, the base-n value of its (m+1)-letter window:
its tail is a // n and its head a % n^m.  Cycles are kept in the
canonical rotation starting with the 0^m window and are printed in
linear form, the cyclic word plus its first m-1 letters repeated at the
end (the form in which every window can be read off left to right).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import GRAPH_VERTEX_LIMIT, Digraph, SimpleGraph, _clique_in, _rows_of

__all__ = [
    "ALPHABET",
    "DBParams",
    "DeBruijnWord",
    "word_encode",
    "word_decode",
    "infer_params",
    "word_of_vertex",
    "de_bruijn_graph",
    "underlying_simple_graph",
    "martin",
    "count_hamiltonian_cycles",
    "enumerate_hamiltonian_cycles",
    "sigma_symbol_map",
    "sigma",
    "rotation_family",
    "ArcConflict",
    "arc_conflict",
    "pairwise_arc_disjoint",
    "max_disjoint_upper_bound",
    "max_disjoint_exact",
]

ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"

ENUMERATION_VERTEX_LIMIT = 27
ENUMERATION_CYCLE_LIMIT = 10**6
COUNT_DIGIT_LIMIT = 4300  # the interpreter's default int-to-str digit limit
DISJOINTNESS_CYCLE_LIMIT = 3000
MARTIN_VERTEX_LIMIT = 2**20
# the fewest words the census validates per numpy pass (the last batch may
# hold fewer); larger batches buy little speed and raise peak memory
CENSUS_BATCH = 512


@dataclass(frozen=True)
class DBParams:
    """Alphabet size n and window length m of B(n, m)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need an alphabet of at least 2 letters")
        if self.m < 1:
            raise ValueError("need window length m >= 1")
        if self.n > len(ALPHABET):
            raise ValueError(f"alphabet limited to {len(ALPHABET)} letters")

    @property
    def vertex_count(self) -> int:
        return self.n**self.m

    @property
    def linear_length(self) -> int:
        return self.n**self.m + self.m - 1


@dataclass(frozen=True)
class DeBruijnWord:
    """A Hamiltonian cycle of B(n, m) as a canonical cyclic word.

    letters has length n^m, starts with the 0^m block, and every
    length-m window (cyclically) is distinct; all three are enforced
    on construction by `_check_words`, the one check of cycle words,
    which raises ValueError naming the fault, or TypeError for a letter
    that is no int.  The census and rotation_family run it on a whole
    batch of words at once and build the words that pass without
    checking them again.
    """

    params: DBParams
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_words(self.params, [self.letters])

    def __str__(self) -> str:
        return word_encode(self)


def _checked_words(params: DBParams, rows: list[tuple[int, ...]]) -> list[DeBruijnWord]:
    """DeBruijnWord(params, t) for every t in rows, checked as one batch."""
    _check_words(params, rows)
    # the letters passed the constructor's checks, so skip __post_init__
    words = []
    new, set_field = object.__new__, object.__setattr__
    for letters in rows:
        word = new(DeBruijnWord)
        set_field(word, "params", params)
        set_field(word, "letters", letters)
        words.append(word)
    return words


def _check_words(params: DBParams, rows: list[tuple[int, ...]]) -> None:
    """Return when every row is a cycle word of B(n, m); otherwise raise
    DeBruijnWord's error for the first row that is not.

    A row passes with n^m int letters in 0..n-1, starting with 0^m, and
    distinct windows.  With the letters in range every window is below
    n^m, so a row's n^m windows are distinct exactly when, sorted, they
    are 0..n^m-1: one bincount over the batch, each row shifted to its
    own n^m slots, has to be all ones.  Only a batch that fails is
    searched for its first fault, row by row.
    """
    n, m, total = params.n, params.m, params.vertex_count
    if set(map(len, rows)) == {total}:
        try:
            # bytearray refuses a letter that is no int in 0..255
            flat = np.frombuffer(b"".join(map(bytearray, rows)), dtype=np.uint8)
        except (TypeError, ValueError):
            pass
        else:
            columns = flat.reshape(-1, total).T
            if flat.max() < n and not columns[:m].any():
                slots = _windows(columns.astype(np.int64), n, m)
                slots += np.arange(0, flat.size, total)
                if (np.bincount(slots.ravel(), minlength=flat.size) == 1).all():
                    return
    for row in rows:
        if len(row) != total:
            raise ValueError(f"cyclic word must have {total} letters, got {len(row)}")
        for c in row:
            if not 0 <= c < n:
                raise ValueError(f"letter {c} outside 0..{n - 1}")
        # refuses a letter that is no int, such as 1.5
        letters = np.frombuffer(bytearray(row), dtype=np.uint8)
        if letters[:m].any():
            raise ValueError("canonical rotation must start with the all-zero window")
        # the first position whose window occurred before it
        firsts = np.zeros(total, dtype=bool)
        windows = _windows(letters.astype(np.int64), n, m)
        firsts[np.unique(windows, return_index=True)[1]] = True
        if not firsts.all():
            raise ValueError(f"window repeated at position {firsts.argmin()}")


def _windows(columns: np.ndarray, n: int, m: int) -> np.ndarray:
    """The base-n value of the length-m window at each position of each
    word, cyclically, for int64 words held one per column: row i holds
    the letters at position i, so a window is read down m rows, summed
    in place, one step per letter."""
    windows = columns.copy()
    for j in range(1, m):
        windows *= n
        windows[:-j] += columns[j:]
        windows[-j:] += columns[:j]
    return windows


def word_encode(word: DeBruijnWord) -> str:
    """Linear form: the cyclic word, then its first m-1 letters again."""
    m = word.params.m
    cyclic = "".join(ALPHABET[c] for c in word.letters)
    return cyclic + cyclic[: m - 1]


def word_decode(text: str, params: DBParams) -> DeBruijnWord:
    """Parse a linear form, validate it, and canonicalize the rotation.

    Accepts any rotation of a valid cycle (in linear form); the result
    starts at the 0^m window, so encode(decode(t)) == t exactly when t
    already does.  Once the text is known to end with its own first m-1
    letters, its length-m substrings are the cycle's windows in order,
    so the first 0^m window starts where the text first holds m zeros.
    """
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
    if letters[total:] != letters[: m - 1]:
        raise ValueError("linear form must end with its own first m-1 letters")
    start = text.find("0" * m)
    if start < 0:
        raise ValueError("no all-zero window; not a full cycle")
    # window distinctness checked here
    return DeBruijnWord(params, tuple(letters[start:total] + letters[:start]))


def infer_params(text: str) -> DBParams:
    """Guess (n, m) from a linear form: n from the largest letter used,
    m from the length.  The guess is unique when it exists."""
    values = [ALPHABET.find(ch) for ch in text]
    if any(v < 0 for v in values):
        raise ValueError("unrecognized letter; expected 0-9 then a-z")
    n = max(values, default=-1) + 1
    if n < 2:
        raise ValueError("need at least two distinct letters to infer the alphabet")
    for m in range(1, 64):
        length = n**m + m - 1
        if length == len(text):
            return DBParams(n, m)
        if length > len(text):
            break
    raise ValueError(f"length {len(text)} matches no B({n}, m)")


def word_of_vertex(v: int, params: DBParams) -> str:
    """The m-letter word of a vertex value."""
    n, m = params.n, params.m
    if not 0 <= v < params.vertex_count:
        raise ValueError(f"vertex {v} outside 0..{params.vertex_count - 1}")
    digits = []
    for _ in range(m):
        v, d = divmod(v, n)
        digits.append(ALPHABET[d])
    return "".join(reversed(digits))


def _check_vertex_limit(params: DBParams, limit: int, what: str) -> None:
    # n^m >= 2^m, so a long window trips the limit without computing n^m
    if params.m >= limit.bit_length() or params.vertex_count > limit:
        raise ValueError(f"{what} limit: n^m must be <= {limit}")


def de_bruijn_graph(params: DBParams) -> Digraph:
    """B(n, m) itself: n^m vertices, n^(m+1) arcs, n of them loops.

    Refuses n^m > GRAPH_VERTEX_LIMIT before allocating.
    """
    _check_vertex_limit(params, GRAPH_VERTEX_LIMIT, "graph")
    n = params.n
    base = n ** (params.m - 1)
    # the successors of v are (v % base) * n + s: n adjacent bits
    low = (1 << n) - 1
    return Digraph.from_rows([low << (v % base) * n for v in range(params.vertex_count)])


def underlying_simple_graph(params: DBParams) -> SimpleGraph:
    """Forget directions and loops; antiparallel arc pairs merge."""
    d = de_bruijn_graph(params)
    n, base = params.n, params.vertex_count // params.n
    # the predecessors of v are v // n + k * base for k < n
    spread = sum(1 << k * base for k in range(n))
    return SimpleGraph._from_rows(
        [(row | spread << v // n) & ~(1 << v) for v, row in enumerate(d.out_adj)]
    )


def martin(params: DBParams) -> DeBruijnWord:
    """Greedy largest-letter-first cycle construction.

    Start from 0^m and repeatedly append the largest letter whose new
    length-m window has not occurred yet; stop when stuck.  The walk
    always gets stuck back at 0^(m-1) having used every window, so the
    letters accumulated are exactly the linear form of a full cycle, and
    its first n^m letters are the word; the constructor's check would
    refuse a walk that stopped early.
    Refuses n^m > MARTIN_VERTEX_LIMIT before allocating.
    """
    _check_vertex_limit(params, MARTIN_VERTEX_LIMIT, "martin")
    n, m = params.n, params.m
    base = n ** (m - 1)
    letters = [0] * m
    window = 0
    seen = bytearray(params.vertex_count)
    seen[0] = 1
    while True:
        for s in range(n - 1, -1, -1):
            nxt = (window % base) * n + s
            if not seen[nxt]:
                seen[nxt] = 1
                letters.append(s)
                window = nxt
                break
        else:
            break
    return DeBruijnWord(params, tuple(letters[: params.vertex_count]))


def count_hamiltonian_cycles(params: DBParams) -> int:
    """Closed-form count of directed Hamiltonian cycles: (n!)^(n^(m-1)) / n^m.

    Refuses, before computing, when (n!)^(n^(m-1)) would have more than
    COUNT_DIGIT_LIMIT decimal digits.
    """
    n, m = params.n, params.m
    log_digits = (m - 1) * math.log10(n) + math.log10(math.lgamma(n + 1) / math.log(10))
    if log_digits > math.log10(COUNT_DIGIT_LIMIT):
        raise ValueError(
            f"count limit: the count would have about 10^{log_digits:.1f} digits, "
            f"more than {COUNT_DIGIT_LIMIT}"
        )
    numerator = math.factorial(n) ** (n ** (m - 1))
    denominator = n**m
    assert numerator % denominator == 0, "cycle-count formula must be integral"
    return numerator // denominator


def _enumeration_count(params: DBParams) -> int:
    """The cycle count of B(n, m), refusing n^m > ENUMERATION_VERTEX_LIMIT
    or more than ENUMERATION_CYCLE_LIMIT cycles."""
    _check_vertex_limit(params, ENUMERATION_VERTEX_LIMIT, "enumeration")
    count = count_hamiltonian_cycles(params)
    if count > ENUMERATION_CYCLE_LIMIT:
        raise ValueError(
            f"enumeration limit: more than {ENUMERATION_CYCLE_LIMIT} cycles"
        )
    return count


def enumerate_hamiltonian_cycles(params: DBParams) -> Iterator[DeBruijnWord]:
    """All Hamiltonian cycles of B(n, m), in lexicographic word order.

    DFS from the 0^m vertex trying letters in ascending order, which
    makes the canonical words come out sorted.  Guarded: refuses when
    n^m > 27 or when the closed-form count is over 10^6.

    B(n, m) is the line digraph of B(n, m-1), so a vertex's successors
    depend only on its last m-1 letters, and the completions of a path
    depend only on its visited set and that suffix.  The visited set
    fixes the suffix as well: the path's vertices are arcs of B(n, m-1)
    that form a trail from 0^(m-1), and a trail ends at the one vertex
    it has entered more often than left, or where it began.  The last
    max(1, n^m // 2 - 1) letters of every cycle therefore come from a
    memo keyed by the visited set, built in ascending letter order so
    that the words still come out sorted.  Each entry holds its tails
    end to end in one bytes object, which keeps the memo small at that
    depth: the (3,3) census takes its last 12 letters from 34,151
    entries.

    The prefix before the memo's tails is a recursive DFS, one call per
    prefix vertex.  Every word is validated as DeBruijnWord's
    constructor would, but a batch of at least CENSUS_BATCH words (the
    last may be shorter) in one numpy pass (`_checked_words`), so the
    words come out a batch at a time.
    """
    for rows in _cycle_letters(params):
        yield from _checked_words(params, rows)


def _cycle_letters(params: DBParams) -> Iterator[list[tuple[int, ...]]]:
    # the letter tuples of enumerate_hamiltonian_cycles, not yet validated,
    # in batches of at least CENSUS_BATCH rows, apart from the last
    _enumeration_count(params)
    n, m = params.n, params.m
    total = params.vertex_count
    base = n ** (m - 1)
    head = (0,) * m
    # the successors of a vertex with suffix r are r * n + s, so their n
    # visited bits sit together at r * n.  By suffix and the mask of those
    # bits, the free steps (letter, successor, its suffix)
    low = (1 << n) - 1
    steps = [[(s, r * n + s, (r * n + s) % base) for s in range(n)] for r in range(base)]
    free_steps = [
        [tuple(t for t in row if not taken >> t[0] & 1) for taken in range(low + 1)]
        for row in steps
    ]
    letter = [bytes((s,)) for s in range(n)]
    # a visited set's tails as one bytes object: at this depth a list of
    # tuples per entry holds about three times the memory
    memo: dict[int, bytes] = {}

    def tails(visited: int, r: int, size: int) -> bytes:
        # the sorted letter sequences, each size long, that finish the
        # cycle from a path with this visited bitmask, joined end to end;
        # the path ends at a vertex with suffix r, which visited fixes
        found = memo.get(visited)
        if found is None:
            parts = []
            k = size - 1
            for s, w, q in free_steps[r][visited >> r * n & low]:
                if size == 1:
                    # w is the last vertex, and its arc back to 0^m exists:
                    # the path's vertices are the arcs of B(n, m-1), each
                    # once, and a trail through every arc of a digraph with
                    # in-degree = out-degree everywhere ends where it began
                    parts.append(letter[s])
                elif rest := tails(visited | 1 << w, q, k):
                    # letter s in front of each of rest's tails
                    chunks = [rest[i : i + k] for i in range(0, len(rest), k)]
                    parts += (letter[s], letter[s].join(chunks))
            found = memo[visited] = b"".join(parts)
        return found

    # the memo supplies a cycle's last depth letters, and the prefix DFS
    # the cut letters before them
    depth = max(1, total // 2 - 1)
    cut = total - 1 - depth
    # a tail's last m-1 letters are the zeros that lead back to 0^m, which
    # the cyclic word already starts with: unpack each tail without them
    unpack = struct.Struct(f"<{depth - (m - 1)}B{m - 1}x").iter_unpack
    syms = [0] * cut  # the prefix letters, written by depth
    batch: list[tuple[int, ...]] = []

    def visit(visited: int, r: int, d: int) -> Iterator[list[tuple[int, ...]]]:
        # one call per prefix vertex, at depth d with suffix r; the steps
        # at the last prefix depth put their cycles into the batch
        nonlocal batch
        here = free_steps[r][visited >> r * n & low]
        if d + 1 < cut:
            for s, w, q in here:
                syms[d] = s
                yield from visit(visited | 1 << w, q, d + 1)
            return
        for s, w, q in here:
            syms[d] = s
            batch += map((head + tuple(syms)).__add__, unpack(tails(visited | 1 << w, q, depth)))
            if len(batch) >= CENSUS_BATCH:
                yield batch
                batch = []  # a new list: the caller may keep the one yielded

    try:
        if cut:
            yield from visit(1, 0, 0)
        else:
            batch += map(head.__add__, unpack(tails(1, 0, depth)))
        if batch:
            yield batch
    finally:
        # tails and visit reach themselves through their closures: break
        # those cycles, so the memo goes when the census ends or is dropped
        del tails, visit


def sigma_symbol_map(n: int) -> tuple[int, ...]:
    """Letter permutation fixing 0 and cycling 1 -> 2 -> ... -> n-1 -> 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    return (0,) + tuple(range(2, n)) + (1,)


def sigma(word: DeBruijnWord) -> DeBruijnWord:
    """Apply the letter rotation to a cycle.

    The letter permutation is a graph automorphism of B(n, m), so the
    image of a Hamiltonian cycle is again one; with n = 2 the map is
    the identity.  It fixes 0, so the image still starts at 0^m.
    """
    smap = sigma_symbol_map(word.params.n)
    return DeBruijnWord(word.params, tuple([smap[c] for c in word.letters]))


def rotation_family(seed: DeBruijnWord) -> list[DeBruijnWord]:
    """The n-1 cycles [seed, sigma(seed), ..., sigma^(n-2)(seed)]; the
    images are checked as one batch, which raises the constructor's
    error for the first bad image."""
    return [seed] + _checked_words(seed.params, _family_rows(seed.params, seed.letters)[1:])


def _family_rows(params: DBParams, letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """rotation_family's letters for a seed with these letters, unchecked:
    sigma fixes 0, so each image of a word starting at 0^m starts there
    too, and the n-2 images are one array of letter-map powers."""
    n = params.n
    if n == 2:
        return [letters]
    smap = np.array(sigma_symbol_map(n))
    powers = [smap]  # powers[k] maps a letter to its image under sigma^(k+1)
    for _ in range(n - 3):
        powers.append(smap[powers[-1]])
    images = np.array(powers)[:, np.array(letters, dtype=np.int64)]
    return [letters] + list(map(tuple, images.tolist()))


@dataclass(frozen=True)
class ArcConflict:
    """First pair of cycles (by index) sharing arcs, with the shared set
    of (tail, head) vertex pairs."""

    first: int
    second: int
    shared: frozenset[tuple[int, int]]


def _check_same_graph(words: Sequence[DeBruijnWord]) -> None:
    for w in words[1:]:
        if w.params != words[0].params:
            raise ValueError("cycles live in different graphs")


def _arc_ids(words: Sequence[DeBruijnWord]) -> np.ndarray:
    """The arc numbers of non-empty same-graph words, one word per
    column: the arc leaving the window at position i is the (m+1)-letter
    window there."""
    columns = np.array([w.letters for w in words], dtype=np.int64).T
    return _windows(columns, words[0].params.n, words[0].params.m + 1)


def arc_conflict(words: Sequence[DeBruijnWord]) -> ArcConflict | None:
    """Scan index pairs in order; None means pairwise arc-disjoint."""
    _check_same_graph(words)
    if len(words) < 2:
        return None
    n, total = words[0].params.n, words[0].params.vertex_count
    arc_sets = [set(ids) for ids in _arc_ids(words).T.tolist()]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            shared = arc_sets[i] & arc_sets[j]
            if shared:
                return ArcConflict(i, j, frozenset((a // n, a % total) for a in shared))
    return None


def pairwise_arc_disjoint(words: Sequence[DeBruijnWord]) -> bool:
    """Whether arc_conflict(words) is None, without the pairwise scan.

    A cycle's arcs are distinct, so the cycles share an arc exactly when
    some arc number occurs twice among all of theirs: one bincount.
    """
    _check_same_graph(words)
    if not words:
        return True
    return bool(np.bincount(_arc_ids(words).ravel()).max() <= 1)


def max_disjoint_upper_bound(n: int) -> int:
    """No family of pairwise arc-disjoint Hamiltonian cycles beats n-1.

    Each cycle leaves every vertex once and the n loops are never used,
    so out-degree n leaves at most n-1 usable arcs per vertex.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return n - 1


def max_disjoint_exact(params: DBParams) -> tuple[int, list[DeBruijnWord]]:
    """Largest pairwise arc-disjoint set of Hamiltonian cycles, exactly.

    Enumerates every cycle (inheriting the enumeration guard, plus a
    cap of a few thousand cycles for the quadratic pairing step, both
    checked before enumerating) and asks for a clique of the
    disjointness graph one cycle larger than the last, until there is
    none.  Returns the size and the lexicographically first witness of
    it.
    """
    if _enumeration_count(params) > DISJOINTNESS_CYCLE_LIMIT:
        raise ValueError(
            f"disjointness limit: more than {DISJOINTNESS_CYCLE_LIMIT} cycles"
        )
    cycles = list(enumerate_hamiltonian_cycles(params))
    count = len(cycles)
    # incidence[k, a] is 1 when cycle k takes arc a; two cycles are
    # adjacent when they share none, so no cycle is adjacent to itself
    incidence = np.zeros((count, params.vertex_count * params.n))
    incidence[np.arange(count), _arc_ids(cycles)] = 1
    adj = _rows_of(incidence @ incidence.T == 0)
    full = (1 << count) - 1
    best: tuple[int, ...] = ()
    while (bigger := _clique_in(adj, full, len(best) + 1)) is not None:
        best = bigger
    return len(best), [cycles[i] for i in best]
