"""Command line: outputs, file handling, exit codes."""

from __future__ import annotations

import argparse
import io
import json
import random
import signal
import sys
import time
import tracemalloc

import pytest

from ordo import cli, report, turan
from ordo.cli import build_parser, main
from ordo.debruijn import DBParams, martin, word_decode
from ordo.graphio import write_coloring, write_digraph
from ordo.graphs import EdgeColoring, SimpleGraph, Tournament, random_tournament
from ordo.ramsey import k17_mod3_coloring
from ordo.seedsearch import append_seed_cache


class LineSink(io.TextIOBase):
    """A text stream that keeps only a count of what it was sent."""

    def __init__(self) -> None:
        self.chars = 0
        self.lines = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.chars += len(text)
        self.lines += text.count("\n")
        return len(text)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRedei:
    def test_path_output(self, tmp_path, capsys):
        t = Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        file = tmp_path / "t.txt"
        file.write_text(write_digraph(t.digraph))
        code, out, _ = run(capsys, "redei", str(file))
        assert code == 0
        path = [int(x) for x in out.split()]
        assert sorted(path) == [1, 2, 3]

    def test_dot_output(self, tmp_path, capsys):
        t = Tournament.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        file = tmp_path / "t.txt"
        file.write_text(write_digraph(t.digraph))
        code, out, _ = run(capsys, "redei", str(file), "--dot")
        assert code == 0
        assert out.count("penwidth") == 2  # the two path arcs

    def test_dot_is_streamed(self, tmp_path, monkeypatch):
        # reading a 300-vertex tournament peaks at about 2.3 MB traced; its
        # DOT text and a list of its 45,152 lines would hold about 2 MB more
        file = tmp_path / "t.txt"
        file.write_text(write_digraph(random_tournament(300, random.Random(3)).digraph))
        peaks = []
        for extra in ([], ["--dot"]):
            sink = LineSink()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["redei", str(file), *extra])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert sink.lines == 2 + 300 + 300 * 299 // 2
        path_only, dot = peaks
        assert dot < 1.25 * path_only

    def test_non_tournament_rejected(self, tmp_path, capsys):
        file = tmp_path / "d.txt"
        file.write_text("digraph n 3\n1 -> 2\n")
        code, _, err = run(capsys, "redei", str(file))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "redei", "/nonexistent/file.txt")
        assert code == 2
        assert "error:" in err

    def test_crlf_file_gives_the_same_path(self, tmp_path, capsys):
        text = write_digraph(random_tournament(40, random.Random(7)).digraph)
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        code, out, _ = run(capsys, "redei", str(lf))
        assert code == 0 and len(out.split()) == 40
        assert run(capsys, "redei", str(crlf)) == (code, out, "")

    def test_huge_header_refused(self, tmp_path, capsys):
        file = tmp_path / "huge.txt"
        file.write_text("digraph n 10000000\n1 -> 2\n")
        code, out, err = run(capsys, "redei", str(file))
        assert (code, out) == (2, "")
        assert "graph limit" in err

    def test_long_faulty_line_quoted_in_part(self, tmp_path, capsys):
        file = tmp_path / "long.txt"
        file.write_text("digraph n 9\n1 -> 2\n" + "1" * 100_000 + " -> 2\n")
        code, out, err = run(capsys, "redei", str(file))
        assert (code, out) == (2, "")
        assert "line 3: " in err and "(the first 80 of 100005 characters)" in err
        assert len(err) < 300


class TestRamsey:
    def test_search_finds_counterexample(self, capsys):
        code, out, _ = run(capsys, "ramsey", "search", "3", "3", "5")
        assert code == 0
        assert "counterexample coloring of K_5" in out
        assert "n 5 c 2" in out

    def test_search_confirms_arrow(self, capsys):
        code, out, _ = run(capsys, "ramsey", "search", "3", "3", "6")
        assert code == 0
        assert "every 2-coloring of K_6" in out

    def test_verify_file(self, tmp_path, capsys):
        file = tmp_path / "c.txt"
        file.write_text(write_coloring(k17_mod3_coloring()))
        code, out, _ = run(capsys, "ramsey", "verify", str(file), "--spec", "3,3,3")
        assert code == 0
        assert "color 0 clique:" in out

    def test_verify_spec_arity_error(self, tmp_path, capsys):
        file = tmp_path / "c.txt"
        file.write_text(write_coloring(k17_mod3_coloring()))
        code, _, err = run(capsys, "ramsey", "verify", str(file), "--spec", "3,3")
        assert code == 2
        assert "error:" in err

    def test_verify_finds_no_clique(self, tmp_path, capsys):
        # the pentagon and the pentagram colour K_5 with no one-colour triangle
        file = tmp_path / "c.txt"
        file.write_text(write_coloring(EdgeColoring.from_function(
            5, 2, lambda u, v: 0 if (v - u) % 5 in (1, 4) else 1
        )))
        code, out, _ = run(capsys, "ramsey", "verify", str(file), "--spec", "3,3")
        assert (code, out) == (0, "no forbidden monochromatic clique\n")

    def test_verify_refuses_a_pair_of_one_vertex(self, tmp_path, capsys):
        file = tmp_path / "c.txt"
        file.write_text("n 3 c 2\n1 1 0\n1 2 0\n2 3 1\n")
        code, out, err = run(capsys, "ramsey", "verify", str(file), "--spec", "3,3")
        assert (code, out) == (2, "")
        assert "pairs are between distinct vertices" in err

    def test_verify_refuses_huge_header(self, tmp_path, capsys):
        file = tmp_path / "c.txt"
        file.write_text("n 100000000 c 2\n1 2 0\n1 3 1\n")
        code, out, err = run(capsys, "ramsey", "verify", str(file), "--spec", "3,3")
        assert (code, out) == (2, "")
        assert "no color" in err

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "ramsey", "bounds", "3", "4")
        assert code == 0
        assert "recurrence upper bound: 9" in out
        assert "binomial upper bound:   10" in out
        assert "R(3,4) = 9" in out

    def test_diagonal_bound_printed(self, capsys):
        _, out, _ = run(capsys, "ramsey", "bounds", "5", "5")
        assert "probabilistic lower bound: 5.66" in out
        assert "R(5,5) in [43, 49]" in out

    def test_no_diagonal_bound_below_three(self, capsys):
        # R(2,2) = 2 is not above 2^(2/2) = 2, and R(1,1) = 1 is below 2^(1/2)
        for k in ("1", "2"):
            code, out, _ = run(capsys, "ramsey", "bounds", k, k)
            assert code == 0
            assert out == f"recurrence upper bound: {k}\nbinomial upper bound:   {k}\n"
        _, out, _ = run(capsys, "ramsey", "bounds", "3", "3")
        assert "probabilistic lower bound: 2.83" in out

    def test_andrasfai(self, capsys):
        code, out, _ = run(capsys, "ramsey", "andrasfai", "3")
        assert code == 0
        assert out.startswith("n 8")
        assert len(out.strip().splitlines()) == 1 + 12

    def test_bounds_refuses_past_the_recurrence_limit(self, capsys):
        for argv in (("2100", "2100"), ("3", "1000000"), ("2000000", "2")):
            code, out, err = run(capsys, "ramsey", "bounds", *argv)
            assert (code, out) == (2, ""), argv
            assert "recurrence limit: m * k must be <= 2000000" in err

    def test_bounds_within_the_recurrence_limit(self, capsys):
        code, out, _ = run(capsys, "ramsey", "bounds", "3", "100000")
        assert code == 0
        assert out == "recurrence upper bound: 5000000001\nbinomial upper bound:   5000050000\n"
        # 1414^2 <= 2,000,000: the diagonal's float 2^707 prints too
        code, out, _ = run(capsys, "ramsey", "bounds", "1414", "1414")
        assert code == 0
        assert "probabilistic lower bound: " in out

    def test_k17_dot(self, capsys):
        code, out, _ = run(capsys, "ramsey", "k17", "--dot")
        assert code == 0
        assert out.startswith("graph")
        assert "color=" in out


class TestTuran:
    def test_bound(self, capsys):
        code, out, _ = run(capsys, "turan", "bound", "13", "4")
        assert (code, out.strip()) == (0, "63")

    def test_graph(self, capsys):
        code, out, _ = run(capsys, "turan", "graph", "5", "2")
        assert code == 0
        assert out.startswith("n 5")
        assert len(out.strip().splitlines()) == 1 + 6

    def test_verify_with_oracle(self, capsys):
        code, out, _ = run(capsys, "turan", "verify", "7", "3")
        assert code == 0
        assert "formula: 16" in out
        assert "oracle: 16" in out
        assert "consistent" in out

    def test_verify_beyond_oracle(self, capsys):
        code, out, _ = run(capsys, "turan", "verify", "13", "4")
        assert code == 0
        assert "oracle" not in out
        assert "consistent" in out

    def test_verify_reports_a_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "max_edges_without_clique_oracle", lambda n, k: 0)
        code, out, _ = run(capsys, "turan", "verify", "5", "2")
        assert code == 1 and out.endswith("oracle: 0\nMISMATCH between formula and oracle\n")
        monkeypatch.setattr(turan, "turan_extremal_graph", lambda n, k: SimpleGraph(n))
        code, out, _ = run(capsys, "turan", "verify", "5", "2")
        assert code == 1 and out.endswith("0 edges, parts [3, 2]\nMISMATCH between formula and graph\n")

    def test_bad_arguments(self, capsys):
        code, _, err = run(capsys, "turan", "bound", "3", "9")
        assert code == 2
        assert "error:" in err

    def test_large_graph_is_streamed(self, monkeypatch):
        # K_{256,256} has 65,536 edges; held as one string per edge its
        # text takes about 5 MB, written line by line it needs no buffer
        sink = LineSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["turan", "graph", "512", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.lines == 1 + 256 * 256
        assert peak < 1_000_000

    def test_huge_graph_refused(self, capsys):
        for command in ("graph", "verify"):
            code, out, err = run(capsys, "turan", command, "100000000", "3")
            assert (code, out) == (2, ""), command
            assert "graph limit" in err
        code, out, _ = run(capsys, "turan", "bound", "100000000", "3")
        assert (code, out.strip()) == (0, "3333333333333333")


class TestDebruijn:
    def test_martin(self, capsys):
        code, out, _ = run(capsys, "debruijn", "martin", "3", "2")
        assert (code, out.strip()) == (0, "0022120110")

    def test_count(self, capsys):
        for n, m, count in (("3", "3", "373248"), ("3", "4", "12635683568857645056")):
            code, out, _ = run(capsys, "debruijn", "count", n, m)
            assert (code, out.strip()) == (0, count)

    def test_count_refuses_huge_values(self, capsys):
        # (2!)^(2^39) would have about 1.7e11 digits; (2!)^(2^15) has
        # about 9,900, too many for the int-to-str limit of print
        for m in ("40", "16"):
            code, out, err = run(capsys, "debruijn", "count", "2", m)
            assert (code, out) == (2, "")
            assert "count limit" in err

    def test_graph_and_martin_refuse_huge_values(self, capsys):
        for argv, message in (
            (("graph", "36", "8"), "graph limit"),
            (("graph", "36", "8", "--dot"), "graph limit"),
            (("graph", "36", "8", "--flower"), "graph limit"),
            (("graph", "36", "3", "--flower"), "graph limit"),
            (("martin", "2", "30"), "martin limit"),
        ):
            code, out, err = run(capsys, "debruijn", *argv)
            assert (code, out) == (2, ""), argv
            assert message in err

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "debruijn", "enumerate", "2", "3")
        assert code == 0
        assert out.split() == ["0001011100", "0001110100"]

    def test_graph_file(self, capsys):
        code, out, _ = run(capsys, "debruijn", "graph", "2", "3")
        assert code == 0
        assert out.startswith("digraph n 8")
        assert len(out.strip().splitlines()) == 1 + 16

    def test_graph_dot_names(self, capsys):
        code, out, _ = run(capsys, "debruijn", "graph", "2", "3", "--dot")
        assert code == 0
        assert '"000" -> "001"' in out

    def test_flower(self, capsys):
        code, out, _ = run(capsys, "debruijn", "graph", "3", "2", "--flower")
        assert code == 0
        assert out.startswith("graph B_3_2 {\n")
        assert '  "00" -- "01";\n' in out
        assert out.count(" -- ") == 21
        assert out.count(";\n") == 9 + 21
        assert out.endswith("}\n")

    # "0112202100" and "0221101200" are the family below rotated by one
    # letter: the only 00 window starts at the last cyclic position and
    # runs into the repeated first letter
    def test_sigma(self, capsys):
        for text in ("0011220210", "0112202100"):
            code, out, _ = run(capsys, "debruijn", "sigma", text)
            assert (code, out.strip()) == (0, "0022110120")

    def test_family(self, capsys):
        for text in ("0011220210", "0112202100"):
            code, out, _ = run(capsys, "debruijn", "family", text)
            assert code == 0
            assert out.split() == ["0011220210", "0022110120"]

    def test_disjoint_yes(self, capsys):
        for words in (("0011220210", "0022110120"), ("0112202100", "0221101200")):
            code, out, _ = run(capsys, "debruijn", "disjoint", *words)
            assert (code, out.strip()) == (0, "pairwise arc-disjoint")
        # a rotation decodes to the same cycle, so it shares every arc
        code, out, _ = run(capsys, "debruijn", "disjoint", "0011220210", "0112202100")
        assert code == 1
        assert out.count("->") == 9

    def test_disjoint_no(self, capsys):
        code, out, _ = run(
            capsys, "debruijn", "disjoint", "0010211220", "0020122110"
        )
        assert code == 1
        assert out.strip() == "cycles 1 and 2 share: 12->22, 21->11"

    def test_guard_errors_are_reported(self, capsys):
        code, _, err = run(capsys, "debruijn", "enumerate", "5", "2")
        assert code == 2
        assert "error:" in err


class TestSeedSearch:
    def test_all_seeds(self, capsys):
        code, out, err = run(capsys, "debruijn", "seed-search", "3", "2", "--all")
        assert code == 0
        assert out.split() == [
            "0011220210",
            "0012022110",
            "0021011220",
            "0022110120",
        ]
        assert "search complete" in err

    def test_first_seed_only(self, capsys):
        code, out, _ = run(capsys, "debruijn", "seed-search", "3", "2")
        assert (code, out.strip()) == (0, "0011220210")

    def test_cache_and_resume(self, tmp_path, capsys):
        cache = str(tmp_path / "seeds.jsonl")
        code, out, _ = run(
            capsys, "debruijn", "seed-search", "3", "2", "--all", "--cache", cache
        )
        assert code == 0 and len(out.split()) == 4
        # resuming from a complete cache reprints it and finds nothing new
        code, out, err = run(
            capsys,
            "debruijn",
            "seed-search",
            "3",
            "2",
            "--all",
            "--resume",
            cache,
        )
        assert code == 0
        assert len(out.split()) == 4
        assert "search complete" in err

    def test_resume_from_partial_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "seeds.jsonl")
        full = str(tmp_path / "full.jsonl")
        run(capsys, "debruijn", "seed-search", "3", "2", "--all", "--cache", full)
        with open(full) as fh:
            lines = fh.readlines()
        with open(cache, "w") as fh:
            fh.writelines(lines[:2])
        code, out, _ = run(
            capsys, "debruijn", "seed-search", "3", "2", "--all", "--resume", cache
        )
        assert code == 0
        assert out.split() == [
            "0011220210",
            "0012022110",
            "0021011220",
            "0022110120",
        ]

    def test_resume_after_torn_tail_from_largest_seed(self, tmp_path, capsys):
        cache = tmp_path / "seeds.jsonl"
        full = str(tmp_path / "full.jsonl")
        run(capsys, "debruijn", "seed-search", "3", "2", "--all", "--cache", full)
        with open(full) as fh:
            lines = fh.readlines()
        # out of order, and the last write cut short by a crash
        cache.write_text(lines[1] + lines[0] + lines[3][:30])
        code, out, _ = run(
            capsys, "debruijn", "seed-search", "3", "2", "--all",
            "--resume", str(cache), "--cache", str(cache),
        )
        assert code == 0
        assert out.split() == [
            "0012022110",
            "0011220210",
            "0021011220",
            "0022110120",
        ]
        assert [json.loads(line)["seed"] for line in cache.read_text().splitlines()] == out.split()

    def test_resume_rejects_interior_garbage(self, tmp_path, capsys):
        cache = tmp_path / "seeds.jsonl"
        full = str(tmp_path / "full.jsonl")
        run(capsys, "debruijn", "seed-search", "3", "2", "--all", "--cache", full)
        with open(full) as fh:
            lines = fh.readlines()
        cache.write_text(lines[0] + "garbage\n" + lines[1])
        code, _, err = run(
            capsys, "debruijn", "seed-search", "3", "2", "--resume", str(cache)
        )
        assert code == 2
        assert "seeds.jsonl:2: not valid JSON" in err

    @pytest.mark.parametrize(
        "field, value, kind", [("seed", 5, "a string"), ("n", [3], "an integer")]
    )
    def test_resume_refuses_a_mistyped_field(self, tmp_path, capsys, field, value, kind):
        # a number as the seed once ended in a TypeError, and a list as n
        # in a silent skip
        cache = tmp_path / "seeds.jsonl"
        entry = {"n": 3, "m": 2, "seed": "0011220210", "timestamp": "t", "nodes_explored": 0}
        cache.write_text(json.dumps({**entry, field: value}) + "\n")
        code, out, err = run(
            capsys, "debruijn", "seed-search", "3", "2", "--resume", str(cache)
        )
        assert code == 2 and out == ""
        assert err == f"error: {cache}:1: field '{field}' must be {kind}\n"

    def test_huge_graph_refused(self, capsys):
        # B(36,2) fits the graph limit, but its step table alone would
        # take many times the one-second budget to build
        for n, m in (("3", "40"), ("36", "2")):
            code, out, err = run(capsys, "debruijn", "seed-search", n, m, "--budget", "1")
            assert (code, out) == (2, ""), (n, m)
            assert "seed search limit" in err

    def test_resume_refuses_a_cached_non_seed(self, tmp_path, capsys):
        # the greedy cycle of B(3,2) shares arcs with its rotated copy
        cache = str(tmp_path / "seeds.jsonl")
        append_seed_cache(cache, word_decode("0022120110", DBParams(3, 2)), 6)
        code, out, err = run(
            capsys, "debruijn", "seed-search", "3", "2", "--all", "--resume", cache
        )
        assert (code, out) == (2, "")
        assert "0022120110 is not a rotation seed" in err

    def test_huge_graph_refused_before_the_cache_is_read(self, tmp_path, capsys):
        cache = tmp_path / "seeds.jsonl"
        append_seed_cache(str(cache), martin(DBParams(36, 2)), 0)
        for path in (cache, tmp_path / "missing.jsonl"):
            code, out, err = run(
                capsys, "debruijn", "seed-search", "36", "2",
                "--resume", str(path), "--budget", "1",
            )
            assert (code, out) == (2, ""), path
            assert "seed search limit" in err

    def test_budget_exit_code(self, capsys):
        # no (8,2) seed turned up in 162,848,768 nodes, about 30 s; the
        # first (7,2) seed lies 379,201 nodes deep, about 0.07 s, so a fast
        # host could find it inside 0.05 s
        code, _, err = run(
            capsys, "debruijn", "seed-search", "8", "2", "--budget", "0.05"
        )
        assert code == 3
        assert "budget exhausted" in err

    def test_nan_budget_refused(self, capsys):
        # every comparison with NaN is false, so the clock would never stop it
        for budget in ("nan", "NaN", "-nan"):
            code, out, err = run(
                capsys, "debruijn", "seed-search", "3", "2", "--all", f"--budget={budget}"
            )
            assert (code, out) == (2, ""), budget
            assert "not NaN" in err

    def test_nan_budget_refused_before_the_cache_is_printed(self, tmp_path, capsys):
        cache = str(tmp_path / "seeds.jsonl")
        run(capsys, "debruijn", "seed-search", "3", "2", "--all", "--cache", cache)
        code, out, err = run(
            capsys, "debruijn", "seed-search", "3", "2", "--all",
            "--resume", cache, "--budget", "nan",
        )
        assert (code, out) == (2, "")
        assert "not NaN" in err


class TestReproduce:
    def test_json_is_atomic_and_valid(self, tmp_path, capsys):
        out_file = tmp_path / "r.json"
        code, _, _ = run(capsys, "reproduce", "--quick", "--json", str(out_file))
        doc = json.loads(out_file.read_text())
        assert set(doc) == {
            "generated_at",
            "tier",
            "seed",
            "entries",
            "summary",
            "exit_code",
        }
        assert (code, doc["exit_code"], doc["tier"]) == (0, 0, "quick")
        assert set(doc["summary"]) == {"match", "mismatch", "flagged-discrepancy"}
        assert list(tmp_path.iterdir()) == [out_file]  # no temporary file left

    def test_json_onto_a_directory_leaves_no_temporary_file(self, tmp_path, capsys):
        target = tmp_path / "r.json"
        target.mkdir()
        code, out, err = run(capsys, "reproduce", "--quick", "--json", str(target))
        assert code == 2 and "error:" in err
        assert out == ""  # refused before the report runs
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []
        # a target whose directory does not exist is refused by its own name
        missing = tmp_path / "nodir" / "r.json"
        code, out, err = run(capsys, "reproduce", "--quick", "--json", str(missing))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error:") and str(missing) in err
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_json_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError(f"cannot move {src} to {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, out, err = run(capsys, "reproduce", "--quick", "--json", str(tmp_path / "r.json"))
        assert (code, err.count("\n")) == (2, 1)
        assert err.startswith("error: cannot move ") and ".tmp-" in err
        assert "summary: " in out  # the table was written before the JSON
        assert list(tmp_path.iterdir()) == []

    def test_mismatch_exits_one(self, monkeypatch, capsys):
        monkeypatch.setitem(
            report._REGISTRY, "martin linear form (2,1)", ("quick", False, lambda seed: ("x", "y"))
        )
        code, out, _ = run(capsys, "reproduce", "--quick")
        assert code == 1
        assert "expected: x" in out and "computed: y" in out and "1 mismatch" in out

    def test_removed_flags_are_usage_errors(self, capsys):
        # the report is one bounded run: no stretch tier, no run budget
        for argv in (["--long"], ["--budget", "10"], ["--quick", "--budget", "0"]):
            with pytest.raises(SystemExit) as info:
                main(["reproduce", *argv])
            assert info.value.code == 2, argv
            assert capsys.readouterr().out == "", argv


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "redei" in out and "reproduce" in out


def _int_positionals(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in parser._actions if a.type is int and not a.option_strings]


def _integer_commands(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """(argv prefix, parser) of every leaf subcommand with an int positional."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _integer_commands(child, prefix + (name,))
            return
    if _int_positionals(parser):
        yield prefix, parser


class _Hung(Exception):
    pass


def _hang_up(signum, frame):
    raise _Hung


def _assert_ends_at_once(argv: list[str], capsys) -> None:
    # a call must end with 0 or 2 in a few seconds, and a hang is cut by
    # the timer
    previous = signal.signal(signal.SIGALRM, _hang_up)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    start = time.perf_counter()
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 2), (argv, code, err)
    assert code == 0 or (out == "" and err.startswith("error: ")), (argv, out, err)
    assert elapsed < 5.0, (argv, elapsed)


INTEGER_COMMANDS = list(_integer_commands(build_parser()))
# (argv prefix, int positional count, the one positional set extreme)
ONE_AT_A_TIME = [
    (prefix, len(_int_positionals(parser)), at)
    for prefix, parser in INTEGER_COMMANDS
    for at in range(len(_int_positionals(parser)))
]


class TestRefusals:
    def test_the_walk_finds_every_integer_command(self):
        assert sorted(" ".join(prefix) for prefix, _ in INTEGER_COMMANDS) == [
            "debruijn count",
            "debruijn enumerate",
            "debruijn graph",
            "debruijn martin",
            "debruijn seed-search",
            "ramsey andrasfai",
            "ramsey bounds",
            "ramsey search",
            "turan bound",
            "turan graph",
            "turan verify",
        ]

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
    @pytest.mark.parametrize("value", [10**9, -1])
    @pytest.mark.parametrize(
        "prefix, parser", INTEGER_COMMANDS, ids=[" ".join(p) for p, _ in INTEGER_COMMANDS]
    )
    def test_extreme_integers_end_at_once(self, prefix, parser, value, capsys):
        # every int positional set to the value
        argv = [*prefix, *[str(value)] * len(_int_positionals(parser))]
        _assert_ends_at_once(argv, capsys)

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs an interval timer")
    @pytest.mark.parametrize("value", [10**9, -1])
    @pytest.mark.parametrize(
        "prefix, count, at",
        ONE_AT_A_TIME,
        ids=[f"{' '.join(p)} #{at + 1}" for p, _, at in ONE_AT_A_TIME],
    )
    def test_one_extreme_integer_ends_at_once(self, prefix, count, at, value, capsys):
        # one int positional set to the value, the others to 2, so that no
        # other argument's check refuses the call first
        argv = [*prefix, *[str(value) if i == at else "2" for i in range(count)]]
        _assert_ends_at_once(argv, capsys)
