"""Backtracking search for rotation seeds.

A seed is a Hamiltonian cycle H of B(n, m) whose n-1 letter-rotated
copies H, sH, ..., s^(n-2)H (s fixes 0 and cycles the other letters)
are pairwise arc-disjoint.  The search grows a vertex path from 0^m
and keeps the whole family fresh at every step: no power of s fixes
any non-loop arc, so every usable arc has a full (n-1)-element orbit,
committing an arc commits its orbit, and freshness collapses to one
membership test per candidate arc.  This prunes enormously earlier
than building the family per leaf would.

Seeds stream out in lexicographic word order.  A search can therefore
resume from the largest seed recorded in a cache file: the DFS fast-
forwards along the lexicographic lower bound and reports only words
strictly above it.  Cache files are JSON lines with the fields
n, m, seed, timestamp, nodes_explored; a final line torn by a crash
is skipped on reading and dropped by the next append.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

from .debruijn import (
    DBParams,
    DeBruijnWord,
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
    "read_seed_cache",
    "cached_seeds",
    "resume_seeds",
]

_BUDGET_CHECK_STRIDE = 8192

# the step table holds two masks per arc, each up to n^(m+1) + n^m bits
# wide, and is built before the first node: at (22,2), 484 vertices, that
# takes 1-2 s and 34 MB
SEED_SEARCH_VERTEX_LIMIT = 2**9


@dataclass
class SeedSearchResult:
    params: DBParams
    seeds: list[DeBruijnWord]
    nodes_explored: int
    completed: bool  # tree exhausted, or first seed found when find_all is off
    budget_exhausted: bool


def _sigma_vertex_map(params: DBParams) -> list[int]:
    n, m = params.n, params.m
    smap = sigma_symbol_map(n)
    out = []
    for v in range(params.vertex_count):
        digits = []
        x = v
        for _ in range(m):
            x, d = divmod(x, n)
            digits.append(smap[d])
        value = 0
        for d in reversed(digits):
            value = value * n + d
        out.append(value)
    return out


def _arc_orbits(params: DBParams) -> list[tuple[int, ...]]:
    # orbit of arc (v, s) under (v, s) -> (sigma v, sigma s); length n-1,
    # with repeats only for loops, which the search never touches
    n = params.n
    smap = sigma_symbol_map(n)
    vmap = _sigma_vertex_map(params)
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


def _extension_letters(word: DeBruijnWord) -> list[int]:
    # the n^m - 1 letters appended while walking the cycle from 0^m
    m = word.params.m
    return list(word.letters[m:]) + list(word.letters[: m - 1])


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
    """
    _check_vertex_limit(params, SEED_SEARCH_VERTEX_LIMIT, "seed search")
    n, m = params.n, params.m
    total = params.vertex_count
    base = n ** (m - 1)
    orbits = _arc_orbits(params)

    # the search keeps one state bitmask: bit v for each vertex on the
    # path, bit total + a for each arc a of a committed orbit.  Per
    # vertex, one step per letter: (letter, successor, the state bits
    # that block the step, the state bits it sets)
    def step(v: int, s: int) -> tuple[int, int, int, int]:
        w = (v % base) * n + s
        aid = v * n + s
        add = sum(1 << (total + x) for x in set(orbits[aid]))
        return s, w, 1 << w | 1 << (total + aid), 1 << w | add

    steps = [tuple(step(v, s) for s in range(n)) for v in range(total)]
    bound: list[int] | None = None
    if resume_after is not None:
        if resume_after.params != params:
            raise ValueError("resume word belongs to a different graph")
        bound = _extension_letters(resume_after)

    seeds: list[DeBruijnWord] = []
    nodes = 0
    deadline = None if time_budget is None else time.monotonic() + time_budget
    if (node_budget is not None and node_budget <= 0) or (
        deadline is not None and time.monotonic() > deadline
    ):
        return SeedSearchResult(params, seeds, nodes, False, True)
    out_of_budget = False

    # tight while the path equals the resume bound's prefix, in which
    # case the top frame's steps start at its letter
    state = 1
    tight = bound is not None
    syms: list[int] = []
    saved: list[tuple[int, bool]] = []  # (state, tight) below each frame
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
        depth = len(syms)  # index of the letter s in the extension sequence
        step_tight = tight and s == bound[depth]
        if depth + 2 == total:
            # last vertex.  The closing arc w -> 0^m appends letter 0, so
            # it exists when w ends in m-1 zeros.  It is always free: sigma
            # fixes the letter 0, so every arc of its orbit appends 0 to a
            # word ending in m-1 zeros, leading into 0^m, which no path arc
            # does.  The resume word itself was already reported.
            if w % base == 0 and not step_tight:
                letters = ((0,) * m + tuple(syms) + (s,))[:total]
                seed = DeBruijnWord(params, letters)
                assert pairwise_arc_disjoint(rotation_family(seed))
                seeds.append(seed)
                stop = on_seed(seed, nodes) if on_seed is not None else None
                if stop or not find_all:
                    return SeedSearchResult(params, seeds, nodes, True, False)
        else:
            saved.append((state, tight))
            state |= add
            tight = step_tight
            syms.append(s)
            stack.append(iter(steps[w][bound[depth + 1]:] if tight else steps[w]))
        if nodes == node_budget or (
            deadline is not None
            and nodes % _BUDGET_CHECK_STRIDE == 0
            and time.monotonic() > deadline
        ):
            out_of_budget = True
            break

    return SeedSearchResult(params, seeds, nodes, not out_of_budget, out_of_budget)


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


def read_seed_cache(path: str) -> list[dict]:
    """All entries of a cache file, validated field by field.

    A final line without its newline that does not parse is a write torn
    by a crash and is skipped; any other malformed line raises.
    """
    entries = []
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
            for field in ("n", "m", "seed", "timestamp", "nodes_explored"):
                if field not in entry:
                    raise ValueError(f"{path}:{lineno}: missing field {field!r}")
            entries.append(entry)
    return entries


def cached_seeds(path: str, params: DBParams) -> list[str]:
    """Seed strings recorded for one (n, m), in file order."""
    return [
        e["seed"]
        for e in read_seed_cache(path)
        if e["n"] == params.n and e["m"] == params.m
    ]


def resume_seeds(path: str, params: DBParams) -> list[DeBruijnWord]:
    """The seeds a cache file records for (n, m), in file order, each
    checked to be a rotation seed, ready to resume a search from.

    Refuses n^m > SEED_SEARCH_VERTEX_LIMIT before opening the file, and
    any recorded word whose rotation family is not pairwise arc-disjoint.
    """
    _check_vertex_limit(params, SEED_SEARCH_VERTEX_LIMIT, "seed search")
    words = []
    for text in cached_seeds(path, params):
        word = word_decode(text, params)
        if not pairwise_arc_disjoint(rotation_family(word)):
            raise ValueError(
                f"{path}: {text} is not a rotation seed of B({params.n}, {params.m})"
            )
        words.append(word)
    return words
