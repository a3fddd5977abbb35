"""Reproduction harness: registry, statuses, tiers, rendering."""

from __future__ import annotations

import inspect
import json
from types import SimpleNamespace

import pytest

from ordo import debruijn, report
from ordo.debruijn import DBParams, martin, word_decode
from ordo.graphs import SimpleGraph, complete_multipartite
from ordo.report import (
    _REGISTRY,
    STATUS_FLAGGED,
    STATUS_MATCH,
    STATUS_MISMATCH,
    TIERS,
    Report,
    ReportEntry,
    _entry,
    _is_complete_multipartite,
    _run_one,
    _selected_claims,
    render_table,
    reproduce_all,
)

FLAGGED_CLAIMS = {"martin linear form (3,2)", "cycle count formula (3,4)"}

# (claim, tier, flagged, expected) of every entry, in registry order: a
# change to a checker that rewrote an expected text together with its
# computed text would still read "match"
PINNED_ENTRIES = [
    ("martin linear form (2,1)", "quick", False, "01"),
    ("martin linear form (2,3)", "quick", False, "0001110100"),
    ("martin linear form (3,2)", "quick", True, "0022112010"),
    ("greedy cycle is never a rotation seed", "quick", False,
     "(3,2), (3,3), (4,2): every greedy family shares arcs"),
    ("de bruijn census (2,3)", "quick", False, "8 vertices, 16 arcs, 2 loops"),
    ("de bruijn census (3,2)", "quick", False, "9 vertices, 27 arcs, 3 loops"),
    ("flower view (3,2)", "quick", False, "9 vertices, 21 edges"),
    ("cycle enumeration (3,2)", "quick", False, "the 24 reference cycles, in lexicographic order"),
    ("cycle enumeration (2,3)", "quick", False, "0001011100 and 0001110100"),
    ("cycle count formula, small cases", "quick", False,
     "(2,2): 1, (2,3): 2, (3,2): 24, (2,4): 16; formula = enumeration"),
    ("cycle count formula (3,3)", "default", False, "373248 cycles; formula = enumeration"),
    ("cycle count formula (3,4)", "quick", True,
     "13824 * 10077696^3 = 14148730862126934905585664"),
    ("letter rotation is an automorphism (3,2)", "quick", False,
     "every image is a reference cycle; applying twice is the identity"),
    ("shared arcs of the reference pair (3,2)", "quick", False, "12->22 and 21->11"),
    ("rotation family of 0011220210", "quick", False,
     "0011220210 and 0022110120, pairwise arc-disjoint"),
    ("rotation family of the (5,2) reference seed", "quick", False,
     "the 4 reference cycles, pairwise arc-disjoint"),
    ("max arc-disjoint families, exact (3,2)", "quick", False, "2 cycles, meeting the n-1 bound"),
    ("max arc-disjoint families, exact (2,3)", "quick", False, "1 cycle, meeting the n-1 bound"),
    ("seed search (3,2), full tree", "quick", False, "4 words, including both reference seeds"),
    ("seed search (4,2), full tree", "quick", False, "288 words, including both reference seeds"),
    ("seed search (5,2), first seed", "default", False, "the reference seed, found first"),
    ("seed search (3,3), first seed", "default", False, "the reference seed, found first"),
    ("seed search (6,2), first seed", "default", False, "the reference seed, found first"),
    ("seed search (4,3), both reference seeds", "default", False,
     "both reference seeds among the first 18 completing words"),
    ("seed validity (7,2)", "default", False,
     "the reference word is a rotation seed (6 disjoint cycles)"),
    ("ramsey check (3,3): K_5 no, K_6 yes", "quick", False,
     "counterexample on K_5 verified; K_6 forced"),
    ("ramsey check (3,4): K_8 no, K_9 yes", "quick", False,
     "counterexample on K_8 verified; K_9 forced"),
    ("triangle-free circulant H_8", "quick", False,
     "8 vertices, 12 edges, 3-regular, no triangle, no 4 independent"),
    ("circulant family H_2 .. H_14", "quick", False,
     "k = 1..5 all triangle-free without k+1 independent; bounds consistent"),
    ("reference bounds table", "quick", False,
     "36 entries, symmetric, lower <= upper <= recurrence <= binomial"),
    ("recurrence bound at (3,4)", "quick", False, "recurrence 9, binomial 10"),
    ("triangle bounds, many colors", "quick", False,
     "r = 2: 6, r = 3: 17; multinomial (3,3): 6, (3,3,3): 90"),
    ("probabilistic diagonal bound", "quick", False,
     "2^(k/2) below the reference lower bound for k = 3..10"),
    ("combined bounds for R(3,k)", "quick", False,
     "3(k-1) <= lower and upper <= k(k+1)/2 for k = 3..10"),
    ("three-colored K_17", "quick", False,
     "reference triangles monochromatic; every class has one"),
    ("clique-free maxima: formula vs oracle", "quick", False,
     "formula = oracle for all 1 <= k <= n <= 7"),
    ("extremal graph examples", "quick", False,
     "(5,2): 6 edges K_{3,2}; (7,3): 16 edges K_{3,2,2}; (13,4): 63 edges K_{4,3,3,3}"),
    ("extremal graphs to n = 50", "quick", False,
     "edge counts and structure match for n <= 50; formula integral to n = 200"),
    ("insertion path, random tournaments", "quick", False,
     "1000 tournaments, n in 2..100: every path valid"),
    ("insertion path, all small tournaments", "quick", False,
     "n = 0..5, all 1100 tournaments: every path valid"),
    ("hamiltonian path counts are odd", "quick", False,
     "exhaustive n <= 5; 100 samples each at n = 6, 7: all counts odd"),
    ("reference tournament examples", "quick", False,
     "cyclic triangle: 3 paths; transitive order: 1 path"),
    ("arc queries stay quadratic", "quick", False,
     "n = 1000: random and worst-case counts within 2 n^2"),
]


@pytest.fixture(scope="module")
def default_report() -> Report:
    return reproduce_all(tier="default", seed=0)


class TestRegistry:
    def test_claims_unique_and_tiered(self):
        assert all(tier in TIERS for tier, _, _ in _REGISTRY.values())
        with pytest.raises(ValueError, match="duplicate claim"):
            _entry("martin linear form (2,1)", "quick")(lambda seed: ("", ""))
        assert _REGISTRY["martin linear form (2,1)"][2](0) == ("01", "01")

    def test_tiers_nest(self):
        quick = _selected_claims("quick")
        default = _selected_claims("default")
        assert set(quick) < set(default)
        assert default == list(_REGISTRY)

    def test_pinned_entries(self, default_report):
        registered = [(claim, tier, flagged) for claim, (tier, flagged, _) in _REGISTRY.items()]
        assert registered == [entry[:3] for entry in PINNED_ENTRIES]
        reported = [
            (e.claim, e.tier, e.status == STATUS_FLAGGED, e.expected)
            for e in default_report.entries
        ]
        assert reported == PINNED_ENTRIES
        assert all(e.status in (STATUS_MATCH, STATUS_FLAGGED) for e in default_report.entries)

    def test_flagged_entries(self):
        flagged = {claim for claim, (_, f, _) in _REGISTRY.items() if f}
        assert flagged == FLAGGED_CLAIMS
        for claim in FLAGGED_CLAIMS:
            assert _REGISTRY[claim][0] == "quick"


class TestRunOne:
    def test_matching_entry(self):
        entry = _run_one("martin linear form (2,3)", seed=0)
        assert entry.status == STATUS_MATCH
        assert entry.expected == entry.computed == "0001110100"
        assert entry.runtime_seconds >= 0

    def test_flagged_entry_never_matches_plainly(self):
        entry = _run_one("martin linear form (3,2)", seed=0)
        assert entry.status == STATUS_FLAGGED
        assert entry.expected == "0022112010"
        assert entry.computed == "0022120110"

    def test_flagged_count_entry(self):
        entry = _run_one("cycle count formula (3,4)", seed=0)
        assert entry.status == STATUS_FLAGGED
        assert entry.expected != entry.computed
        assert "12635683568857645056" in entry.computed

    @pytest.mark.parametrize(
        "claim, name, fake, computed",
        [
            (
                "seed search (3,2), full tree",
                "rotation_seed_search",
                lambda real: lambda params, find_all: SimpleNamespace(seeds=[martin(params)]),
                "1 words; missing 0011220210; missing 0021011220",
            ),
            (
                "seed search (5,2), first seed",
                "rotation_seed_search",
                lambda real: lambda params, find_all: SimpleNamespace(seeds=[]),
                "no seed found",
            ),
            (
                "ramsey check (3,3): K_5 no, K_6 yes",
                "exhaustive_ramsey_check",
                lambda real: lambda m, k, n: (n == 5, None),
                "K_5 check broken; K_6 not forced",
            ),
            (
                "insertion path, random tournaments",
                "redei_hamiltonian_path",
                lambda real: lambda t: real(t)[::-1],
                "invalid path at trial 0 (n = 51)",
            ),
            (
                "clique-free maxima: formula vs oracle",
                "max_edges_without_clique_oracle",
                lambda real: lambda n, k: 0 if (n, k) == (7, 3) else real(n, k),
                "(7,3): formula 16, oracle 0",
            ),
            (
                "seed validity (7,2)",
                "pairwise_arc_disjoint",
                lambda real: lambda family: False,
                "family is not arc-disjoint",
            ),
            (
                "seed search (4,3), both reference seeds",
                "rotation_seed_search",
                lambda real: lambda params, find_all, on_seed: SimpleNamespace(seeds=[]),
                "missing: " + ", ".join(sorted(report.REFERENCE_SEEDS[(4, 3)])),
            ),
            (
                "three-colored K_17",
                "verify_coloring",
                lambda real: lambda coloring, sizes: None,
                "verifier found no witness",
            ),
            (
                "reference tournament examples",
                "count_hamiltonian_paths_oracle",
                lambda real: lambda t: 0,
                "cyclic triangle count off; transitive count off",
            ),
            (
                "cycle count formula, small cases",
                "_cycle_letters",
                lambda real: lambda params: (rows[:-1] for rows in real(params)),
                "(2,2): formula 1, enumeration 0; (2,3): formula 2, enumeration 1; "
                "(3,2): formula 24, enumeration 23; (2,4): formula 16, enumeration 15",
            ),
            (
                "greedy cycle is never a rotation seed",
                "pairwise_arc_disjoint",
                lambda real: lambda family: True,
                "greedy (3,2) family is arc-disjoint; greedy (3,3) family is arc-disjoint; "
                "greedy (4,2) family is arc-disjoint",
            ),
        ],
    )
    def test_failure_texts(self, monkeypatch, claim, name, fake, computed):
        # each checker's failure branch, reached by breaking the one call it checks
        monkeypatch.setattr(report, name, fake(getattr(report, name)))
        entry = _run_one(claim, 0)
        assert (entry.status, entry.computed) == (STATUS_MISMATCH, computed)

    def test_count_checks_every_batch(self, monkeypatch):
        # the count entry reads the census's letter batches, not its words;
        # a bad row in the first, a middle or the short last batch raises
        # the error the word census raises
        p = DBParams(4, 2)
        good = list(debruijn._cycle_letters(p))
        assert report._count({(4, 2): 20736}, "ok", 0) == ("ok", "ok")
        for at in (0, len(good) // 2, len(good) - 1):
            batches = [list(rows) for rows in good]
            batches[at].insert(len(batches[at]) // 2, (0,) * 16)
            for module in (debruijn, report):
                monkeypatch.setattr(module, "_cycle_letters", lambda params, b=batches: iter(b))
            with pytest.raises(ValueError) as words:
                list(debruijn.enumerate_hamiltonian_cycles(p))
            with pytest.raises(ValueError) as count:
                report._count({(4, 2): 20736}, "ok", 0)
            assert str(count.value) == str(words.value) == "window repeated at position 1"

    def test_seed_search_entries_match(self, default_report):
        entries = {e.claim: e for e in default_report.entries}
        for claim in (
            "seed search (3,3), first seed",
            "seed search (6,2), first seed",
            "seed search (4,3), both reference seeds",
            "seed validity (7,2)",
        ):
            entry = entries[claim]
            assert (entry.tier, entry.status) == ("default", STATUS_MATCH), claim
            assert entry.expected == entry.computed


def _same_letter_else_largest(n: int, m: int) -> str | None:
    """The linear word of the greedy rule "append the last letter again
    if its window is fresh, else the largest letter whose window is",
    from 0^m; None when it gets stuck before every window is used."""
    word = [0] * m
    seen = {tuple(word)}
    while True:
        last = word[-1]
        for s in [last] + [s for s in range(n - 1, -1, -1) if s != last]:
            window = tuple(word[len(word) - m + 1 :] + [s])
            if window not in seen:
                seen.add(window)
                word.append(s)
                break
        else:
            break
    return "".join(map(str, word)) if len(word) == n**m + m - 1 else None


class TestFlaggedExplanations:
    def test_reference_word_is_the_same_letter_greedy_word(self):
        entry = _run_one("martin linear form (3,2)", seed=0)
        assert _same_letter_else_largest(3, 2) == entry.expected == "0022112010"
        word_decode(_same_letter_else_largest(4, 2), DBParams(4, 2))  # a cycle word
        for n, m in ((2, 3), (3, 3), (2, 4)):
            assert _same_letter_else_largest(n, m) is None, (n, m)

    def test_reference_count_and_closed_form_factor(self):
        entry = _run_one("cycle count formula (3,4)", seed=0)
        assert entry.expected == f"13824 * 10077696^3 = {2**36 * 3**30}"
        assert entry.computed == f"(3!)^(3^3) / 3^4 = {2**27 * 3**23}"


class TestStructureCheck:
    def test_complete_multipartite_check(self):
        g = complete_multipartite([3, 2, 2])
        assert _is_complete_multipartite(g, [3, 2, 2])
        assert not _is_complete_multipartite(g, [2, 3, 2])
        assert not _is_complete_multipartite(g, [3, 2, 1])
        assert not _is_complete_multipartite(g, [3, 2, 2, 1])
        missing = SimpleGraph(7, g.edges - {(0, 3)})
        assert not _is_complete_multipartite(missing, [3, 2, 2])
        extra = SimpleGraph(7, g.edges | {(0, 1)})
        assert not _is_complete_multipartite(extra, [3, 2, 2])


class TestReportObject:
    def _synthetic(self) -> Report:
        return Report(
            generated_at="2026-01-01T00:00:00+00:00",
            tier="quick",
            seed=0,
            entries=[
                ReportEntry("a", "quick", "1", "1", STATUS_MATCH, 0.1),
                ReportEntry("b", "quick", "2", "3", STATUS_MISMATCH, 0.2),
                ReportEntry("c", "quick", "4", "5", STATUS_FLAGGED, 0.3),
            ],
        )

    def test_counts(self):
        report = self._synthetic()
        assert report.counts() == {STATUS_MATCH: 1, STATUS_MISMATCH: 1, STATUS_FLAGGED: 1}

    def test_exit_codes(self):
        report = self._synthetic()
        assert report.exit_code == 1  # a mismatch fails the run
        report.entries[1].status = STATUS_MATCH
        assert report.exit_code == 0  # flagged alone stays green

    def test_json_document(self):
        doc = json.loads(self._synthetic().to_json())
        assert doc["tier"] == "quick"
        assert doc["exit_code"] == 1
        assert doc["summary"][STATUS_MISMATCH] == 1
        assert len(doc["entries"]) == 3
        assert doc["entries"][0]["claim"] == "a"

    def test_render_table(self):
        text = render_table(self._synthetic())
        assert text.endswith("summary: 1 match, 1 mismatch, 1 flagged-discrepancy\n")
        # non-matching entries carry expected/computed detail lines
        assert text.count("expected:") == 2
        assert text.count("computed:") == 2


class TestReproduceAll:
    def test_rejects_unknown_tier(self):
        for tier in ("exhaustive", "long"):
            with pytest.raises(ValueError, match="tier"):
                reproduce_all(tier=tier)

    def test_benchmark_contract(self):
        # perfbench/workloads.py runs reproduce_all(tier="quick", seed=...)
        # and pins the quick tier's 37 claims in registry order
        assert {"tier", "seed"} <= set(inspect.signature(reproduce_all).parameters)
        assert len(_selected_claims("quick")) == 37

    def test_a_wrong_answer_is_a_mismatch(self, monkeypatch):
        claim = "martin linear form (2,1)"
        monkeypatch.setitem(_REGISTRY, claim, ("quick", False, lambda seed: ("x", "y")))
        report = reproduce_all("quick", 0)
        entry = next(e for e in report.entries if e.claim == claim)
        assert (entry.expected, entry.computed, entry.status) == ("x", "y", STATUS_MISMATCH)
        assert report.counts()[STATUS_MISMATCH] == 1
        assert report.exit_code == 1
