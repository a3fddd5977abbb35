"""Command-line workbench.

One subcommand per area: tournament paths, Ramsey checks, extremal
graphs, De Bruijn cycles, and the reproduce harness.  Exit codes:
0 success, 1 refuted/mismatch, 2 usage or input error, 3 budget hit
(seed-search only: reproduce has no budget and always runs to its end).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import debruijn as db
from . import graphio
from . import ramsey
from . import turan
from .graphs import Tournament, max_edges_without_clique_oracle
from .redei import is_hamiltonian_path, redei_hamiltonian_path
from .report import render_table, reproduce_all
from .seedsearch import _check_time_budget, append_seed_cache, resume_seeds, rotation_seed_search

__all__ = ["main", "build_parser"]


def _write_file_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordo",
        description="combinatorial workbench: tournament paths, Ramsey "
        "checks, extremal graphs, De Bruijn cycles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("redei", help="Hamiltonian path of a tournament file")
    p.add_argument("file", help="digraph file; must be a tournament")
    p.add_argument("--dot", action="store_true", help="emit DOT with the path highlighted")

    p = sub.add_parser("ramsey", help="Ramsey bounds, checks, witnesses")
    rsub = p.add_subparsers(dest="ramsey_command", required=True)

    q = rsub.add_parser("verify", help="check a coloring file against forbidden clique sizes")
    q.add_argument("file", help="coloring file")
    q.add_argument("--spec", required=True, help="comma-separated clique sizes, one per color")

    q = rsub.add_parser("search", help="exhaustive check that K_n forces the cliques")
    q.add_argument("m", type=int)
    q.add_argument("k", type=int)
    q.add_argument("n", type=int)

    q = rsub.add_parser("bounds", help="print the classical bounds for R(m,k)")
    q.add_argument("m", type=int)
    q.add_argument("k", type=int)

    q = rsub.add_parser("andrasfai", help="triangle-free circulant on 3k-1 vertices")
    q.add_argument("k", type=int)
    q.add_argument("--dot", action="store_true")

    q = rsub.add_parser("k17", help="the 3-colored K_17 with label-sum colors")
    q.add_argument("--dot", action="store_true")

    p = sub.add_parser("turan", help="extremal clique-free graphs")
    tsub = p.add_subparsers(dest="turan_command", required=True)

    q = tsub.add_parser("bound", help="maximum edges with no K_{k+1}")
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)

    q = tsub.add_parser("graph", help="the extremal complete multipartite graph")
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)
    q.add_argument("--dot", action="store_true")

    q = tsub.add_parser("verify", help="recheck the formula against the graph (and the oracle for n <= 7)")
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)

    p = sub.add_parser("debruijn", help="De Bruijn graphs and cycle words")
    dsub = p.add_subparsers(dest="debruijn_command", required=True)

    q = dsub.add_parser("graph", help="B(n,m) as a digraph file or drawing")
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)
    view = q.add_mutually_exclusive_group()
    view.add_argument("--dot", action="store_true", help="DOT digraph, nodes named by word")
    view.add_argument("--flower", action="store_true", help="DOT of the underlying simple graph")

    q = dsub.add_parser("martin", help="greedy largest-letter cycle")
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)

    q = dsub.add_parser("enumerate", help="all Hamiltonian cycles, lexicographic")
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)

    q = dsub.add_parser("count", help="closed-form cycle count")
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)

    q = dsub.add_parser("sigma", help="letter-rotation image of a cycle word")
    q.add_argument("word")

    q = dsub.add_parser("family", help="the n-1 rotated copies of a cycle word")
    q.add_argument("word")

    q = dsub.add_parser("disjoint", help="are the given cycle words pairwise arc-disjoint?")
    q.add_argument("words", nargs="+")

    q = dsub.add_parser("seed-search", help="search for rotation seeds")
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)
    q.add_argument("--all", action="store_true", help="keep searching after the first seed")
    q.add_argument("--budget", type=float, metavar="SECONDS", help="wall-clock budget")
    q.add_argument("--resume", metavar="CACHE", help="resume after the largest seed in this cache file")
    q.add_argument("--cache", metavar="FILE", help="append found seeds to this cache file")

    p = sub.add_parser("reproduce", help="recompute every reference claim and compare")
    p.add_argument("--quick", action="store_true", help="fast entries only")
    p.add_argument("--json", metavar="FILE", help="also write the JSON report")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized sweeps (default 0)")

    return parser


def _cmd_redei(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        digraph = graphio.read_digraph(fh.read())
    tournament = Tournament(digraph)
    path = redei_hamiltonian_path(tournament)
    assert is_hamiltonian_path(tournament, path)
    if args.dot:
        arcs = [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        sys.stdout.write(graphio.digraph_to_dot(digraph, highlight=arcs))
    else:
        print(" ".join(str(v + 1) for v in path))
    return 0


def _cmd_ramsey(args: argparse.Namespace) -> int:
    if args.ramsey_command == "verify":
        with open(args.file, "r", encoding="utf-8") as fh:
            coloring = graphio.read_coloring(fh.read())
        spec = tuple(int(x) for x in args.spec.split(","))
        witness = ramsey.verify_coloring(coloring, spec)
        if witness is None:
            print("no forbidden monochromatic clique")
        else:
            vertices = " ".join(str(v + 1) for v in witness.vertices)
            print(f"color {witness.color} clique: {vertices}")
        return 0
    if args.ramsey_command == "search":
        holds, counterexample = ramsey.exhaustive_ramsey_check(args.m, args.k, args.n)
        if holds:
            print(f"every 2-coloring of K_{args.n} has a red K_{args.m} or a blue K_{args.k}")
            return 0
        print(f"counterexample coloring of K_{args.n}:")
        sys.stdout.write(graphio.write_coloring(counterexample))
        return 0
    if args.ramsey_command == "bounds":
        m, k = args.m, args.k
        print(f"recurrence upper bound: {ramsey.recurrence_upper_bound(m, k)}")
        print(f"binomial upper bound:   {ramsey.erdos_szekeres_bound(m, k)}")
        if m == k >= 3:
            print(f"probabilistic lower bound: {ramsey.diagonal_lower_bound(k):.2f}")
        lo, hi = ramsey.KNOWN_VALUE_RANGE
        if lo <= m <= hi and lo <= k <= hi:
            print(f"reference: {ramsey.known_value(m, k)}")
        return 0
    if args.ramsey_command == "andrasfai":
        g = ramsey.andrasfai_graph(args.k)
        sys.stdout.writelines(graphio._graph_dot_lines(g) if args.dot else graphio._graph_lines(g))
        return 0
    if args.ramsey_command == "k17":
        col = ramsey.k17_mod3_coloring()
        sys.stdout.write(
            graphio.coloring_to_dot(col) if args.dot else graphio.write_coloring(col)
        )
        return 0
    raise AssertionError(args.ramsey_command)


def _cmd_turan(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    if args.turan_command == "bound":
        print(turan.turan_max_edges(n, k))
        return 0
    if args.turan_command == "graph":
        g = turan.turan_extremal_graph(n, k)
        sys.stdout.writelines(graphio._graph_dot_lines(g) if args.dot else graphio._graph_lines(g))
        return 0
    if args.turan_command == "verify":
        bound = turan.turan_max_edges(n, k)
        g = turan.turan_extremal_graph(n, k)
        parts = turan.turan_part_sizes(n, k)
        print(f"formula: {bound}")
        print(f"extremal graph: {g.edge_count} edges, parts {parts}")
        if g.edge_count != bound:
            print("MISMATCH between formula and graph")
            return 1
        if n <= 7:
            oracle = max_edges_without_clique_oracle(n, k)
            print(f"oracle: {oracle}")
            if oracle != bound:
                print("MISMATCH between formula and oracle")
                return 1
        print("consistent")
        return 0
    raise AssertionError(args.turan_command)


def _cmd_debruijn(args: argparse.Namespace) -> int:
    cmd = args.debruijn_command
    if cmd == "graph":
        params = db.DBParams(args.n, args.m)
        if args.flower:
            g, dot_lines = db.underlying_simple_graph(params), graphio._graph_dot_lines
        elif args.dot:
            g, dot_lines = db.de_bruijn_graph(params), graphio._digraph_dot_lines
        else:
            sys.stdout.writelines(graphio._digraph_lines(db.de_bruijn_graph(params)))
            return 0
        names = [db.word_of_vertex(v, params) for v in range(g.vertex_count)]
        sys.stdout.writelines(dot_lines(g, names=names, title=f"B_{params.n}_{params.m}"))
        return 0
    if cmd == "martin":
        print(db.word_encode(db.martin(db.DBParams(args.n, args.m))))
        return 0
    if cmd == "enumerate":
        for word in db.enumerate_hamiltonian_cycles(db.DBParams(args.n, args.m)):
            print(db.word_encode(word))
        return 0
    if cmd == "count":
        print(db.count_hamiltonian_cycles(db.DBParams(args.n, args.m)))
        return 0
    if cmd == "sigma":
        word = db.word_decode(args.word, db.infer_params(args.word))
        print(db.word_encode(db.sigma(word)))
        return 0
    if cmd == "family":
        word = db.word_decode(args.word, db.infer_params(args.word))
        for member in db.rotation_family(word):
            print(db.word_encode(member))
        return 0
    if cmd == "disjoint":
        params = db.infer_params(args.words[0])
        words = [db.word_decode(w, params) for w in args.words]
        conflict = db.arc_conflict(words)
        if conflict is None:
            print("pairwise arc-disjoint")
            return 0
        shared = sorted(
            f"{db.word_of_vertex(u, params)}->{db.word_of_vertex(v, params)}"
            for u, v in conflict.shared
        )
        print(f"cycles {conflict.first + 1} and {conflict.second + 1} share: {', '.join(shared)}")
        return 1
    if cmd == "seed-search":
        return _cmd_seed_search(args)
    raise AssertionError(cmd)


def _cmd_seed_search(args: argparse.Namespace) -> int:
    params = db.DBParams(args.n, args.m)
    _check_time_budget(args.budget)  # before a resumed search prints its cached seeds
    resume_word = None
    if args.resume:
        known = resume_seeds(args.resume, params)
        for word in known:
            print(db.word_encode(word))
        if known:
            # seeds stream out in word order, so the largest one is the furthest
            resume_word = max(known, key=lambda w: w.letters)

    def on_seed(word, nodes):
        print(db.word_encode(word), flush=True)
        if args.cache:
            append_seed_cache(args.cache, word, nodes)

    result = rotation_seed_search(
        params,
        find_all=args.all,
        time_budget=args.budget,
        resume_after=resume_word,
        on_seed=on_seed,
    )
    print(
        f"explored {result.nodes_explored} nodes; "
        + ("budget exhausted" if result.budget_exhausted else "search complete"),
        file=sys.stderr,
    )
    return 3 if result.budget_exhausted else 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.json:  # refuse a target it cannot write before the report runs
        if os.path.isdir(args.json):
            raise ValueError(f"cannot write {args.json}: it is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.json))):
            raise ValueError(f"cannot write {args.json}: its directory does not exist")
    report = reproduce_all(tier="quick" if args.quick else "default", seed=args.seed)
    sys.stdout.write(render_table(report))
    if args.json:
        _write_file_atomic(args.json, report.to_json())
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "redei":
            return _cmd_redei(args)
        if args.command == "ramsey":
            return _cmd_ramsey(args)
        if args.command == "turan":
            return _cmd_turan(args)
        if args.command == "debruijn":
            return _cmd_debruijn(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
