"""Span tracing of the ordo modules, installed from outside the package.

`Tracer.install` replaces every public function of each ordo module with
a wrapper that records a span, at every name a caller binds: the
module's own global and every `from ... import` copy in the other
modules.  Two constructors are wrapped as methods on their class
(`Tournament.__init__` and `Tournament.from_arcs`).  Per-element calls
(`has_arc`, `word_of_vertex`, the private search helpers) stay
unwrapped so the overhead stays small; it is reported as
`trace.overhead_s`.

A span is (id, parent id, name, start, end, busy, error).  `busy` equals
`end - start` except for generator functions, whose one span covers the
first to the last resumption and whose `busy` counts only the time spent
inside the generator.  Self time is `busy` minus the `busy` of the child
spans.  Spans stay in memory and are written out by `write_jsonl`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "report",
    "ramsey",
    "graphs",
    "redei",
    "turan",
    "debruijn",
    "seedsearch",
    "graphio",
    "cli",
)

# called once per vertex, arc or window: a span each would cost more
# than the work it measures
UNWRAPPED = {"debruijn.word_of_vertex"}

# metric group -> spans whose self time it sums; `<group>.calls` counts
# the spans of the first member only (all three readers for graphio.read)
GROUPS = {
    "ramsey.check": ("ramsey.exhaustive_ramsey_check",),
    "ramsey.verify": ("ramsey.verify_coloring",),
    "graphs.clique": (
        "graphs.find_clique",
        "graphs.has_clique",
        "graphs.find_independent_set",
        "graphs.has_independent_set",
    ),
    "graphs.tournament_build": (
        "graphs.Tournament.__init__",
        "graphs.Tournament.from_arcs",
        "graphs.random_tournament",
        "graphs.all_tournaments",
    ),
    "graphs.oracle": ("graphs.max_edges_without_clique_oracle",),
    "turan.graph": ("turan.turan_extremal_graph", "graphs.complete_multipartite"),
    "redei.path": ("redei.redei_hamiltonian_path",),
    "redei.oracle": ("redei.count_hamiltonian_paths_oracle",),
    "debruijn.enumerate": ("debruijn.enumerate_hamiltonian_cycles",),
    "debruijn.decode": ("debruijn.word_decode", "debruijn.infer_params"),
    "debruijn.family": (
        "debruijn.rotation_family",
        "debruijn.sigma",
        "debruijn.sigma_symbol_map",
        "debruijn.arc_conflict",
        "debruijn.pairwise_arc_disjoint",
        "debruijn.arcs_of",
    ),
    "seedsearch": ("seedsearch.rotation_seed_search",),
    "graphio.read": ("graphio.read_graph", "graphio.read_digraph", "graphio.read_coloring"),
    "graphio.write": (
        "graphio.write_graph",
        "graphio.write_digraph",
        "graphio.write_coloring",
        "graphio.graph_to_dot",
        "graphio.digraph_to_dot",
        "graphio.coloring_to_dot",
    ),
    "cli": ("cli.main", "cli.build_parser"),
}

FIRST_SEED_PARAMS = ((5, 2), (3, 3), (6, 2), (4, 3))


class Tracer:
    """Records spans and exact counts while installed; one per traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.first_seed_nodes: dict[str, int] = {}
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        spans, stack, clock, ids = self.spans, self._stack, time.perf_counter, self._ids
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, end - start, error))
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = next(ids)
            parent = None
            start = None
            busy = 0.0
            items = 0
            error = None
            try:
                while True:
                    t0 = clock()
                    if start is None:
                        start, parent = t0, stack[-1]
                    stack.append(sid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    except BaseException as exc:
                        error = type(exc).__name__
                        raise
                    finally:
                        stack.pop()
                        busy += clock() - t0
                    items += 1
                    yield item
            finally:
                if start is not None:
                    spans.append((sid, parent, name, start, clock(), busy, error))
                counts[name + ".items"] += items

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, ordo_modules: dict) -> None:
        """Wrap every public function at every binding in the ordo modules."""
        originals: dict[int, object] = {}
        for short in MODULES:
            mod = ordo_modules[short]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                name = f"{short}.{attr}"
                if isinstance(obj, type) or not callable(obj) or name in UNWRAPPED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = self._wrap(name, obj, OBSERVERS.get(name))
        for short in MODULES:
            mod = ordo_modules[short]
            for attr, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None:
                    self._replace(mod, attr, wrapped)
        tournament = ordo_modules["graphs"].Tournament
        init = tournament.__dict__["__init__"]
        self._replace(tournament, "__init__", self._wrap("graphs.Tournament.__init__", init))
        from_arcs = tournament.__dict__["from_arcs"]
        self._replace(
            tournament,
            "from_arcs",
            classmethod(self._wrap("graphs.Tournament.from_arcs", from_arcs.__func__)),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- aggregation --------------------------------------------------

    def self_times(self) -> dict[int, float]:
        child_busy: dict[int, float] = defaultdict(float)
        for sid, parent, _name, _s, _e, busy, _err in self.spans:
            child_busy[parent] += busy
        return {sid: busy - child_busy[sid] for sid, _p, _n, _s, _e, busy, _err in self.spans}

    def group_metrics(self) -> dict[str, float]:
        """Self time and span count per group, plus the exact counts."""
        own = self.self_times()
        group_of = {m: g for g, members in GROUPS.items() for m in members}
        self_s: dict[str, float] = defaultdict(float)
        spans: Counter = Counter()
        errors: Counter = Counter()
        for sid, _parent, name, _s, _e, _busy, error in self.spans:
            spans[name] += 1
            errors[name] += error is not None
            if name in group_of:
                self_s[group_of[name]] += own[sid]
        out: dict[str, float] = {}
        for group, members in GROUPS.items():
            out[f"{group}.self_s"] = self_s[group]
            out[f"{group}.calls"] = spans[members[0]]
        out["graphio.read.calls"] = sum(spans[m] for m in GROUPS["graphio.read"])
        out["debruijn.decode.rejected"] = sum(errors[m] for m in GROUPS["debruijn.decode"])
        out["debruijn.enumerate.cycles"] = self.counts[
            "debruijn.enumerate_hamiltonian_cycles.items"
        ]
        for name in (
            "cli.exit_2",
            "graphio.read.bytes",
            "redei.arc_queries",
            "seedsearch.nodes",
            "seedsearch.seeds",
        ):
            out[name] = self.counts[name]
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, busy, error in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "busy": busy,
                            "error": error,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# --- exact counts taken at the wrapped boundaries ------------------------


def _observe_seed_search(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["seedsearch.nodes"] += result.nodes_explored
    tracer.counts["seedsearch.seeds"] += len(result.seeds)
    params = call["params"]
    first_seed = not call.get("find_all", False) and call.get("resume_after") is None
    if first_seed and (params.n, params.m) in FIRST_SEED_PARAMS:
        tracer.first_seed_nodes[f"{params.n}_{params.m}"] = result.nodes_explored


def _observe_redei_path(tracer: Tracer, call: dict, result) -> None:
    # only an ArcQueryCounter argument counts its queries
    queries = getattr(call["t"], "queries", None)
    if queries is not None:
        tracer.counts["redei.arc_queries"] += queries


def _observe_read(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["graphio.read.bytes"] += len(call["text"].encode("utf-8"))


def _observe_cli(tracer: Tracer, call: dict, result) -> None:
    if result == 2:
        tracer.counts["cli.exit_2"] += 1


OBSERVERS = {
    "seedsearch.rotation_seed_search": _observe_seed_search,
    "redei.redei_hamiltonian_path": _observe_redei_path,
    "graphio.read_graph": _observe_read,
    "graphio.read_digraph": _observe_read,
    "graphio.read_coloring": _observe_read,
    "cli.main": _observe_cli,
}


def loaded_modules() -> dict:
    return {short: sys.modules[f"ordo.{short}"] for short in MODULES}
