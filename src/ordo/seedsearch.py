"""Backtracking search for rotation seeds.

A seed is a Hamiltonian cycle H of B(n, m) whose n-1 letter-rotated
copies H, sH, ..., s^(n-2)H (s fixes 0 and cycles the other letters)
are pairwise arc-disjoint.  The search grows a vertex path from 0^m
and keeps the whole family fresh at every step: no power of s fixes
any non-loop arc, so every usable arc has a full (n-1)-element orbit,
committing an arc commits its orbit, and freshness collapses to one
bit per arc.  This prunes enormously earlier than building the family
per leaf would.  The path and the committed orbits share one state
bitmask in which a vertex's n successors, and its n out-arcs, take n
adjacent bits, so the free letters of a vertex are read once, when the
path reaches it, with two shifts of the state.  The DFS runs on the
call stack: one recursive call per path vertex holds that vertex's
steps and state, and a step to a vertex with no free letter is counted
but makes no call.  The admitted 512 vertices take about 511 frames,
inside Python's default recursion limit.

While at least 16 vertices are off the path, the in-test prunes a node
when some vertex off the path has no free arc in from the path's end or
from another vertex off it: every Hamiltonian completion enters that
vertex along such an arc, so no seed is lost.  Leaving a vertex retires
its out-arcs in the state, and the loops are retired from the start, so
the free arcs are the clear bits of the arc region, and a few shifts
fold its n blocks onto the vertices they enter.  A pruned node is
counted and checked against the budgets like any other; only the nodes
below it are skipped.  Near the leaves the test costs more than it
saves, hence the cutoff.  With the test the first (7,2) seed takes
2,373,355 nodes, about 2 s; without it, a search of 1,039,507,456 nodes
found none.

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
    _check_vertex_limit,
    _checked_words,
    _family_rows,
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

# the in-test runs only while at least this many vertices are off the path
_IN_TEST_CUTOFF = 16

# the step table holds one mask per arc, up to n^(m+1) + n^m bits wide,
# and is built before the first node; the free-step tables fill as masks
# turn up.  At (22,2), 484 vertices, a 2000-node search takes about 0.1 s,
# with a tracemalloc peak of 17 MB
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


class _Stop(Exception):
    """Unwinds the seed DFS when a seed or a budget ends it."""


def _sigma_arc_map(params: DBParams) -> list[int]:
    # arc (v, s) has id v * n + s, its m+1 letters read as a base-n
    # number, so sigma maps the id letter by letter
    n = params.n
    smap = sigma_symbol_map(n)
    images = [0]
    for _ in range(params.m + 1):
        images = [x * n + smap[d] for x in images for d in range(n)]
    return images


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
    arc_image = _sigma_arc_map(params)

    # the search keeps one state bitmask: bit v for each vertex on the
    # path, bit total + a for each arc a that the path can no longer take:
    # the loops, the arcs of a committed orbit and the out-arcs of every
    # vertex it has left.  Per vertex, one step per letter: (letter,
    # successor, the state bits the step sets).  An arc's orbit has n-1
    # arcs, repeated only for loops, which the search never takes
    def step(v: int, s: int) -> tuple[int, int, int]:
        w = (v % base) * n + s
        # leaving v also retires its n out-arcs: the path never uses them again
        add, a = 1 << w | low << total + v * n, v * n + s
        for _ in range(n - 1):
            add |= 1 << total + a
            a = arc_image[a]
        return s, w, add

    steps = [tuple(step(v, s) for s in range(n)) for v in range(total)]
    # per vertex w: where its successor bits and its out-arc bits start,
    # and its free steps by the mask of taken letters, filled as masks turn
    # up (2^n entries a vertex, built up front, would not fit)
    lookup = [((v % base) * n, total + v * n, {}) for v in range(total)]

    def free_steps(w: int, state: int) -> tuple[tuple[int, int, int], ...]:
        at_succ, at_arc, table = lookup[w]
        taken = (state >> at_succ | state >> at_arc) & low
        if taken not in table:
            table[taken] = tuple(t for t in steps[w] if not taken >> t[0] & 1)
        return table[taken]

    # the in-test (see the module docstring).  The arcs into u are
    # u + k * total, k < n, so folding the n blocks of free arcs onto the
    # lowest sets bit u exactly when u has one
    vmask = (1 << total) - 1
    arcs_all = (1 << n * total) - 1
    folds = tuple(total << k for k in range((n - 1).bit_length()))
    prune_below = total - 1 - _IN_TEST_CUTOFF  # the depths the test runs at

    def starved(state: int) -> bool:
        g = arcs_all & ~(state >> total)  # the free arcs
        for f in folds:
            g |= g >> f
        return bool(vmask & ~(state | g))

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
    state = 1  # the path's first vertex, and the loops
    for c in range(n):
        state |= 1 << total + c * (total - 1) // (n - 1) * n + c
    v = 0
    # (steps still to try, the state, the depth) of each frame to visit
    walk = [] if bound else [(free_steps(0, state), state, 0)]
    for depth, b in enumerate(bound):
        # walk the resume word's path once, counting its nodes, as far as
        # it is free; each frame on it goes on above the word's letter, and
        # the word itself, at the last vertex, is not reported again
        here = free_steps(v, state)
        walk.append(([t for t in here if t[0] > b], state, depth))
        if steps[v][b] not in here:
            break
        nodes += 1
        if depth == last:
            break
        syms[depth] = b
        _, v, add = steps[v][b]
        state |= add
        if depth < prune_below and starved(state):
            break  # the in-test prunes the word's own path here
    # one comparison per node folds both budgets: check_at is the node budget
    # or, with a deadline, the next multiple of the stride (the walk is shorter)
    limit = sys.maxsize if node_budget is None else node_budget
    check_at = min(limit, sys.maxsize if deadline is None else _BUDGET_CHECK_STRIDE)
    if check_at <= nodes:
        return SeedSearchResult(seeds, check_at, True)
    exhausted = False

    def check() -> None:
        # at node check_at: stop when a budget has run out, else set the
        # next check
        nonlocal check_at, exhausted
        if nodes == node_budget or time.monotonic() > deadline:
            exhausted = True
            raise _Stop
        check_at = min(limit, nodes + _BUDGET_CHECK_STRIDE)

    def visit(here: tuple[tuple[int, int, int], ...], state: int, depth: int) -> None:
        # one call per path vertex; its steps are the nodes it counts
        nonlocal nodes
        if depth == last:
            # last vertex: each step closes a seed.  The closing arc
            # w -> 0^m exists: the path's vertices are the arcs of
            # B(n, m-1), each once, and a trail through every arc of a
            # digraph with in-degree = out-degree everywhere ends where it
            # began, so w ends in m-1 zeros.  It is always free: sigma
            # fixes the letter 0, so every arc of its orbit appends 0 to a
            # word ending in m-1 zeros, leading into 0^m, which no path arc
            # does.
            for s, _, _ in here:
                nodes += 1
                letters = ((0,) * m + tuple(syms) + (s,))[:total]
                family = _checked_words(params, _family_rows(params, letters))  # one batch
                assert pairwise_arc_disjoint(family)
                seeds.append(family[0])
                stop = on_seed(family[0], nodes) if on_seed is not None else None
                if stop or not find_all:
                    raise _Stop
                if nodes == check_at:
                    check()
            return
        prune = depth < prune_below
        for s, w, add in here:
            nodes += 1
            child = state | add
            # free_steps, inlined
            at_succ, at_arc, table = lookup[w]
            free = table.get((child >> at_succ | child >> at_arc) & low)
            if free is None:
                free = free_steps(w, child)
            if nodes == check_at:
                check()
            if not free:  # a dead end costs no call
                continue
            if prune:
                # starved, inlined: a pruned node costs no call either
                g = arcs_all & ~(child >> total)
                for f in folds:
                    g |= g >> f
                if vmask & ~(child | g):
                    continue
            syms[depth] = s
            visit(free, child, depth + 1)

    try:
        # the root, or the resume walk's frames deepest first
        for frame in reversed(walk):
            visit(*frame)
    except _Stop:
        pass
    finally:
        # visit reaches itself through its closure: break that cycle, so the
        # tables go when the search returns, not at the next collection
        del visit
    return SeedSearchResult(seeds, nodes, exhausted)


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
