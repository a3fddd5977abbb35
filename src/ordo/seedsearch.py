"""Backtracking search for rotation seeds.

A seed is a Hamiltonian cycle H of B(n, m) whose n-1 letter-rotated
copies H, sH, ..., s^(n-2)H (s fixes 0 and cycles the other letters)
are pairwise arc-disjoint.  The search grows a vertex path from 0^m
and keeps the whole family fresh at every step: no power of s fixes
any non-loop arc, so every usable arc has a full (n-1)-element orbit,
committing an arc commits its orbit, and freshness collapses to one
bit per arc.  This prunes enormously earlier than building the family
per leaf would.  The same orbits prove each seed found: as no power of s
fixes an arc of H, two copies share an arc exactly when two arcs of H
share an orbit, so the family is pairwise arc-disjoint exactly when H's
n^m arcs lie in n^m distinct orbits.

The path and the committed orbits share one state bitmask of two
regions.  From bit 0 there is one group of n+2 bits per vertex u: bit k
of the group is set when the arc into u from the vertex with first
letter k is retired; bit n is u's visited bit; bit n+1 is a spacer and
is never set.  From bit (n+2) * n^m there is one bit
per arc, set when the path can no longer take it: a loop, an arc of a
committed orbit, an out-arc of a vertex the path has left, or an arc
into a vertex on the path.  A vertex's n out-arcs are n adjacent bits,
so its free letters are read once, when the path reaches it, with one
shift of the state.  Entering a vertex sets its whole group, in-arc
bits and visited bit alike.

At every node the in-test prunes when some vertex off the path has no
free arc in from the path's end or from another vertex off it: every
Hamiltonian completion enters that vertex along such an arc, so no seed
is lost.  Adding one to the lowest bit of every group carries into the
visited bit exactly when all n in-arc bits are set; a vertex on the path
has n+1 bits set, so its carry clears the visited bit and stops in the
spacer.  A group holds at most those n+1 bits and its spacer is 0, so no
carry leaves its group, and the test is one addition and one mask:
`state + ones & visited`.  A pruned node is counted and checked against
the budgets like any other; only the nodes below it are skipped.  With
one vertex off the path the test cannot prune: the test runs only on a
node with a free step, and the path's end can step only into that
vertex, along a free arc into it.  So skipping the test while fewer than
two vertices are off the path would leave the search as it is.  With the
test the first (7,2) seed takes 379,201 nodes, about 0.07 s (Python
3.11.7, a shared 2-core Linux host); without it, a search of
1,039,507,456 nodes found none.

The DFS runs in one Python frame: per depth, a list holds the steps
still to try and another the state, and a step to a vertex with no free
letter, or one the in-test prunes, is counted but not entered.  A
recursive call per path vertex ran at a speed that hung on the
caller's stack depth.  CPython 3.11 keeps frames on a per-thread data
stack of chunks and frees a chunk as soon as it empties, so a search
whose path depth moves back and forth across a chunk boundary maps a
chunk anew on every crossing.  In one frame the speed does not depend
on how deep the search is called from, and it needs no recursion
headroom.

Every step goes through one loop, the step into the path's last vertex
too.  That step closes a seed, and its child has no free step: every
vertex is then on the path, and every arc into a vertex on the path is
blocked.  So it falls out as a dead end does, and the budgets are
checked at one point, after each node is counted and, on a closing
step, after its seed is reported.

Seeds stream out in lexicographic word order.  A search can therefore
resume from the largest seed recorded in a cache file: the DFS walks
that word's path once and reports only words strictly above it.
Cache files are JSON lines with the fields n, m, seed, timestamp,
nodes_explored; a final line torn by a crash is skipped on reading
and dropped by the next append.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from .debruijn import (
    DBParams,
    DeBruijnWord,
    _arc_ids,
    _check_vertex_limit,
    pairwise_arc_disjoint,
    rotation_family,
    sigma_symbol_map,
    word_decode,
    word_encode,
)

__all__ = [
    "SeedSearchResult",
    "rotation_seed_search",
    "append_seed_cache",
    "resume_seeds",
]

_BUDGET_CHECK_STRIDE = 8192

# the step table holds one mask per arc, up to (2n + 2) n^m bits wide,
# and is built before the first node; the free-step tables fill as masks
# turn up.  At (22,2), 484 vertices, a 2000-node search takes about 0.02 s
# in a fresh process, with a tracemalloc peak of 35.6 MB (10^6 bytes)
SEED_SEARCH_VERTEX_LIMIT = 2**9

# a cache line's fields, each with its JSON type
_CACHE_FIELDS = (
    ("n", int, "an integer"),
    ("m", int, "an integer"),
    ("seed", str, "a string"),
    ("timestamp", str, "a string"),
    ("nodes_explored", int, "an integer"),
)


@dataclass
class SeedSearchResult:
    seeds: list[DeBruijnWord]
    nodes_explored: int
    budget_exhausted: bool

    @property
    def completed(self) -> bool:
        # tree exhausted, or the search stopped at a seed as asked
        return not self.budget_exhausted


def _arc_orbits(params: DBParams) -> list[int]:
    # each arc's sigma-orbit, named by its least arc.  Arc (v, s) has id
    # v * n + s, its m+1 letters read as a base-n number, so sigma maps the
    # id letter by letter; each new orbit is walked once through that image
    n = params.n
    smap = sigma_symbol_map(n)
    image = [0]
    for _ in range(params.m + 1):
        image = [x * n + smap[d] for x in image for d in range(n)]
    names = [-1] * len(image)
    for a in range(len(image)):
        b = a
        while names[b] < 0:
            names[b] = a
            b = image[b]
    return names


def _extension_letters(word: DeBruijnWord) -> list[int]:
    # the n^m - 1 letters appended while walking the cycle from 0^m
    m = word.params.m
    return list(word.letters[m:]) + list(word.letters[: m - 1])


def _check_time_budget(time_budget: float | None) -> None:
    # every comparison with NaN is false, so the clock would never stop it
    if time_budget is not None and math.isnan(time_budget):
        raise ValueError("time budget must be a number of seconds, not NaN")


def rotation_seed_search(
    params: DBParams,
    find_all: bool = False,
    *,
    node_budget: int | None = None,
    time_budget: float | None = None,
    resume_after: DeBruijnWord | None = None,
    on_seed: Callable[[DeBruijnWord, int], object] | None = None,
) -> SeedSearchResult:
    """DFS for rotation seeds, letters ascending, hence lex word order.

    Stops at the first seed unless find_all is set.  node_budget caps
    visited path nodes, time_budget is wall-clock seconds; hitting
    either returns the seeds found so far with budget_exhausted set.
    resume_after skips every word up to and including the given one.
    on_seed fires for each seed the moment it is found; a truthy return
    value ends the search early (still counted as completed).
    Refuses n^m > SEED_SEARCH_VERTEX_LIMIT before building its tables.
    B(n,1) for even n >= 4 holds no seed, and is answered without a
    search: no seeds, 0 nodes, completed.
    """
    _check_vertex_limit(params, SEED_SEARCH_VERTEX_LIMIT, "seed search")
    _check_time_budget(time_budget)
    if resume_after is not None and resume_after.params != params:
        raise ValueError("resume word belongs to a different graph")
    n, m = params.n, params.m
    if m == 1 and n >= 4 and n % 2 == 0:
        # no seed, by arithmetic.  B(n,1) is the complete digraph on the
        # letters, and sigma adds 1 to the non-zero letters, read as
        # Z_(n-1).  Two arcs between non-zero letters with the same
        # difference are in one orbit, so a seed's n-2 such arcs have the
        # n-2 distinct non-zero differences.  They form the path from a,
        # the letter after 0, to b, the letter before it, so they sum to
        # b - a; for odd n-1 the non-zero residues sum to 0, so a = b,
        # which a cycle through n >= 3 letters cannot have
        return SeedSearchResult([], 0, False)
    total = params.vertex_count
    base = n ** (m - 1)
    low = (1 << n) - 1
    names = _arc_orbits(params)

    # the state bitmask (see the module docstring): from bit 0, one group of
    # n + 2 bits per vertex; from bit at_arcs, one bit per arc, set when the
    # path can no longer take it.  The arcs into u are u + k * total, k < n,
    # and arc a has bit a // total of u's group
    width = n + 2
    at_arcs = width * total
    ones = sum(1 << u * width for u in range(total))
    vpos = ones << n  # the visited bits
    full = (1 << n + 1) - 1  # an entered vertex's group

    def retired(a: int) -> int:
        return 1 << at_arcs + a | 1 << a % total * width + a // total

    # each step's add mask is made of three parts, each built once: entering
    # w blocks the n arcs into w and fills w's group; leaving v retires v's n
    # out-arcs, whose heads share v's successor block; taking arc a commits
    # a's orbit, one mask per orbit, kept under the orbit's name
    into = sum(1 << k * total for k in range(n)) << at_arcs
    out_heads = sum(1 << s * width for s in range(n))
    enter = [into << w | full << w * width for w in range(total)]
    orbit = [0] * (n * total)
    for a, name in enumerate(names):
        orbit[name] |= retired(a)
    # per vertex, one step per letter: (letter, successor, the state bits
    # the step sets)
    steps = []
    for v in range(total):
        first = (v % base) * n  # v's first successor
        leave = low << at_arcs + v * n | out_heads << first * width + v // base
        named = names[v * n : v * n + n]  # v's out-arcs, by orbit name
        steps.append(
            tuple((s, first + s, enter[first + s] | leave | orbit[named[s]]) for s in range(n))
        )
    del enter, orbit
    # per vertex w: where its out-arc bits start, and its free steps by the
    # mask of blocked letters, filled as masks turn up (2^n entries a
    # vertex, built up front, would not fit)
    lookup = [(at_arcs + w * n, {}) for w in range(total)]

    def free_steps(w: int, state: int) -> tuple[tuple[int, int, int], ...]:
        at, table = lookup[w]
        taken = state >> at & low
        if taken not in table:
            table[taken] = tuple(t for t in steps[w] if not taken >> t[0] & 1)
        return table[taken]

    bound = [] if resume_after is None else _extension_letters(resume_after)

    seeds: list[DeBruijnWord] = []
    nodes = 0
    deadline = None if time_budget is None else time.monotonic() + time_budget
    if (node_budget is not None and node_budget <= 0) or (
        deadline is not None and time.monotonic() > deadline
    ):
        return SeedSearchResult(seeds, nodes, True)

    last = total - 2  # the depth of the last vertex
    syms = [0] * last  # the path's letters, written by depth
    # per depth: the steps still to try there, and the state there
    todo: list = [None] * (last + 1)
    states = [0] * (last + 1)
    state = full | into  # the path's first vertex, 0^m
    for c in range(n):
        state |= retired(c * (total - 1) // (n - 1) * n + c)  # the loops
    todo[0], states[0] = iter(free_steps(0, state)), state
    v = depth = 0
    for depth, b in enumerate(bound):
        # walk the resume word's path once, counting its nodes, as far as
        # it is free; each depth on it goes on above the word's letter, and
        # the word itself, at the last vertex, is not reported again
        here = free_steps(v, state)
        todo[depth], states[depth] = iter([t for t in here if t[0] > b]), state
        if steps[v][b] not in here:
            break
        nodes += 1
        if depth == last:
            break
        syms[depth] = b
        _, v, add = steps[v][b]
        state |= add
        if state + ones & vpos:
            break  # the in-test prunes the word's own path here
    # one comparison per node folds both budgets: check_at is the node budget
    # or, with a deadline, the next multiple of the stride (the walk is shorter)
    limit = sys.maxsize if node_budget is None else node_budget
    check_at = min(limit, sys.maxsize if deadline is None else _BUDGET_CHECK_STRIDE)
    if check_at <= nodes:
        return SeedSearchResult(seeds, check_at, True)

    # the DFS runs in this one frame (see the module docstring), from the
    # root or from the resume walk's deepest depth
    while depth >= 0:
        here, state = todo[depth], states[depth]
        closing = depth == last  # each step here enters the last vertex
        for s, w, add in here:
            nodes += 1
            child = state | add
            at, table = lookup[w]
            try:
                free = table[child >> at & low]
            except KeyError:
                free = free_steps(w, child)
            if closing:
                # the step closes a seed.  The closing arc w -> 0^m exists:
                # the path's vertices are the arcs of B(n, m-1), each once,
                # and a trail through every arc of a digraph with in-degree
                # = out-degree everywhere ends where it began, so w ends in
                # m-1 zeros.  It is always free: sigma fixes the letter 0,
                # so every arc of its orbit appends 0 to a word ending in
                # m-1 zeros, leading into 0^m, which no path arc does
                seed = DeBruijnWord(params, ((0,) * m + tuple(syms) + (s,))[:total])
                assert len({names[a] for a in _arc_ids([seed]).ravel().tolist()}) == total
                seeds.append(seed)
                stop = on_seed(seed, nodes) if on_seed is not None else None
                if stop or not find_all:
                    return SeedSearchResult(seeds, nodes, False)
            if nodes == check_at:
                if nodes == node_budget or time.monotonic() > deadline:
                    return SeedSearchResult(seeds, nodes, True)
                check_at = min(limit, nodes + _BUDGET_CHECK_STRIDE)
            if not free:  # a dead end or a closed seed is counted, not entered
                continue
            if child + ones & vpos:
                continue  # the in-test: some vertex off the path is starved
            syms[depth] = s
            depth += 1
            todo[depth], states[depth] = iter(free), child
            break
        else:
            depth -= 1  # every step here is tried: back up a vertex
    return SeedSearchResult(seeds, nodes, False)


def append_seed_cache(path: str, word: DeBruijnWord, nodes_explored: int) -> None:
    """Append one JSONL entry; the file is created if missing."""
    entry = {
        "n": word.params.n,
        "m": word.params.m,
        "seed": word_encode(word),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "nodes_explored": int(nodes_explored),
    }
    with open(path, "ab+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                # the last write was torn: drop its partial line, or end a
                # complete one, so the new entry starts on a line of its own
                fh.seek(0)
                data = fh.read()
                keep = data.rfind(b"\n") + 1
                try:
                    json.loads(data[keep:])
                except ValueError:
                    fh.truncate(keep)
                else:
                    fh.write(b"\n")
        fh.write((json.dumps(entry, sort_keys=True) + "\n").encode("utf-8"))


def resume_seeds(path: str, params: DBParams) -> list[DeBruijnWord]:
    """The seeds a cache file records for (n, m), in file order, each
    checked to be a rotation seed, ready to resume a search from.

    Refuses n^m > SEED_SEARCH_VERTEX_LIMIT before opening the file.
    Every line is parsed and its fields checked before any word is
    decoded: n, m and nodes_explored must be JSON integers, seed and
    timestamp strings.  A final line without its newline that does not
    parse is a write torn by a crash and is skipped; any other malformed
    line raises, and so does a recorded word whose rotation family is
    not pairwise arc-disjoint.
    """
    _check_vertex_limit(params, SEED_SEARCH_VERTEX_LIMIT, "seed search")
    texts = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):
                    break
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(entry, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            for field, _, _ in _CACHE_FIELDS:
                if field not in entry:
                    raise ValueError(f"{path}:{lineno}: missing field {field!r}")
            for field, kind, name in _CACHE_FIELDS:
                # type(), not isinstance(): JSON true is no integer
                if type(entry[field]) is not kind:
                    raise ValueError(f"{path}:{lineno}: field {field!r} must be {name}")
            if entry["n"] == params.n and entry["m"] == params.m:
                texts.append(entry["seed"])
    words = []
    for text in texts:
        word = word_decode(text, params)
        if not pairwise_arc_disjoint(rotation_family(word)):
            raise ValueError(
                f"{path}: {text} is not a rotation seed of B({params.n}, {params.m})"
            )
        words.append(word)
    return words
