"""Acceptance gate: one numbered pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Criterion 1 compares the greedy construction against the
reference linear form on record; the two disagree (the bundled
reference data carries the discrepancy flag), so that test fails by
design rather than hiding the difference.  The (7,2) stretch search
behind criterion 6 only runs with `--long-budget`.
"""

from __future__ import annotations

import itertools
import time

import pytest

from ordo.debruijn import (
    DBParams,
    arc_conflict,
    count_hamiltonian_cycles,
    enumerate_hamiltonian_cycles,
    martin,
    max_disjoint_exact,
    pairwise_arc_disjoint,
    rotation_family,
    word_decode,
    word_encode,
)
from ordo.graphs import (
    all_tournaments,
    find_clique,
    find_independent_set,
    max_edges_without_clique_oracle,
    random_tournament,
)
from ordo.ramsey import (
    andrasfai_graph,
    erdos_szekeres_bound,
    erdos_triangle_multicolor_bound,
    exhaustive_ramsey_check,
    k17_mod3_coloring,
    multicolor_multinomial_bound,
    recurrence_upper_bound,
    verify_coloring,
)
from ordo.redei import (
    count_hamiltonian_paths_oracle,
    is_hamiltonian_path,
    redei_hamiltonian_path,
)
from ordo.report import (
    REFERENCE_CYCLES_3_2,
    REFERENCE_SEEDS,
    STATUS_FLAGGED,
    STATUS_MATCH,
    reproduce_all,
)
from ordo.seedsearch import rotation_seed_search
from ordo.turan import turan_extremal_graph, turan_max_edges, turan_part_sizes

import random


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} ({label}): {status}{suffix}")


def test_criterion_01_greedy_linear_form():
    reference = "0022112010"
    martin(DBParams(3, 2))  # warm up
    best = min(
        _timed(lambda: word_encode(martin(DBParams(3, 2)))) for _ in range(5)
    )
    elapsed, text = best
    ok = text == reference and elapsed < 0.001
    _report(1, "greedy linear form (3,2)", ok, f"computed {text}, {elapsed * 1e6:.0f}us")
    assert ok, (
        f"greedy construction gives {text}, reference value on record is "
        f"{reference}; the reproduction report flags this same discrepancy"
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def test_criterion_02_enumeration_is_byte_exact():
    start = time.perf_counter()
    texts = {word_encode(w) for w in enumerate_hamiltonian_cycles(DBParams(3, 2))}
    elapsed = time.perf_counter() - start
    ok = texts == set(REFERENCE_CYCLES_3_2) and len(texts) == 24 and elapsed < 1.0
    _report(2, "24 cycles of B(3,2), byte-exact", ok, f"{elapsed:.2f}s")
    assert ok, f"enumerated {len(texts)} words in {elapsed:.2f}s"


def test_criterion_03_count_equals_enumeration():
    failures = []
    for n, m, expected in ((2, 2, 1), (2, 3, 2), (3, 2, 24)):
        formula = count_hamiltonian_cycles(DBParams(n, m))
        listed = sum(1 for _ in enumerate_hamiltonian_cycles(DBParams(n, m)))
        if not (formula == listed == expected):
            failures.append(f"({n},{m}): formula {formula}, enumerated {listed}")
    start = time.perf_counter()
    big = sum(1 for _ in enumerate_hamiltonian_cycles(DBParams(3, 3)))
    elapsed = time.perf_counter() - start
    if big != 373248 or count_hamiltonian_cycles(DBParams(3, 3)) != 373248:
        failures.append(f"(3,3): enumerated {big}")
    if elapsed >= 300:
        failures.append(f"(3,3) enumeration took {elapsed:.0f}s")
    ok = not failures
    _report(3, "census formula vs enumeration", ok, f"(3,3) in {elapsed:.1f}s")
    assert ok, "; ".join(failures)


def test_criterion_04_shared_arcs_exact():
    params = DBParams(3, 2)
    words = [word_decode("0010211220", params), word_decode("0020122110", params)]
    conflict = arc_conflict(words)
    shared = conflict.shared if conflict else frozenset()
    expected = frozenset({(5, 8), (7, 4)})  # words 12->22 and 21->11
    ok = shared == expected
    _report(4, "shared arcs of the non-disjoint pair", ok, f"{len(shared)} arcs")
    assert ok, f"shared arcs {sorted(shared)}"


def test_criterion_05_rotation_families():
    family = rotation_family(word_decode("0011220210", DBParams(3, 2)))
    ok = pairwise_arc_disjoint(family) and len(family) == 2

    block = REFERENCE_SEEDS[(5, 2)][0]
    generated = rotation_family(word_decode(block, DBParams(5, 2)))
    block_texts = tuple(word_encode(w) for w in generated)
    from ordo.report import REFERENCE_BLOCK_5_2

    ok = (
        ok
        and block_texts == REFERENCE_BLOCK_5_2
        and pairwise_arc_disjoint(generated)
    )
    _report(5, "rotation families are arc-disjoint", ok)
    assert ok


def _search_until(params: DBParams, targets: set[str], budget: float):
    found: set[str] = set()

    def on_seed(word, nodes):
        found.add(word_encode(word))
        return targets <= found

    result = rotation_seed_search(
        params, find_all=True, time_budget=budget, on_seed=on_seed
    )
    return found, result


def test_criterion_06_seed_searches():
    failures = []
    timings = []
    for (n, m), budget in (((3, 2), 60.0), ((4, 2), 60.0), ((5, 2), 60.0),
                           ((3, 3), 1800.0), ((4, 3), 1800.0)):
        targets = set(REFERENCE_SEEDS[(n, m)])
        start = time.perf_counter()
        found, result = _search_until(DBParams(n, m), targets, budget)
        elapsed = time.perf_counter() - start
        timings.append(f"({n},{m}) {elapsed:.1f}s")
        if not targets <= found:
            missing = sorted(targets - found)
            failures.append(f"({n},{m}) missing {missing} after {elapsed:.1f}s")
        if elapsed > budget:
            failures.append(f"({n},{m}) beyond its {budget:.0f}s budget")
    ok = not failures
    _report(6, "seed searches find the listed seeds", ok, ", ".join(timings))
    assert ok, "; ".join(failures)


def test_criterion_06_stretch_6_2():
    targets = set(REFERENCE_SEEDS[(6, 2)])
    found, result = _search_until(DBParams(6, 2), targets, 900.0)
    ok = targets <= found
    _report(6, "stretch seed search (6,2)", ok, f"{result.nodes_explored} nodes")
    assert ok


def test_criterion_06_stretch_7_2(long_budget):
    if not long_budget:
        pytest.skip("stretch search; enable with --long-budget")
    listed = REFERENCE_SEEDS[(7, 2)][0]
    family = rotation_family(word_decode(listed, DBParams(7, 2)))
    assert pairwise_arc_disjoint(family), "listed (7,2) seed is not a valid family"
    found, result = _search_until(DBParams(7, 2), {listed}, 900.0)
    if result.budget_exhausted and listed not in found:
        _report(
            6,
            "stretch seed search (7,2)",
            True,
            f"budget exhausted after {result.nodes_explored} nodes; "
            "listed seed validated directly",
        )
        pytest.skip("search budget exhausted; the listed seed itself verified")
    ok = listed in found
    _report(6, "stretch seed search (7,2)", ok, f"{result.nodes_explored} nodes")
    assert ok


def test_criterion_07_max_disjoint_family_sizes():
    size_32, witness_32 = max_disjoint_exact(DBParams(3, 2))
    size_23, witness_23 = max_disjoint_exact(DBParams(2, 3))
    ok = (
        size_32 == 2
        and size_23 == 1
        and pairwise_arc_disjoint(witness_32)
        and size_32 >= 3 // 2
        and size_23 >= 2 // 2
    )
    _report(7, "exact arc-disjoint maxima", ok, f"(3,2)={size_32}, (2,3)={size_23}")
    assert ok


def test_criterion_08_ramsey_exact_values():
    failures = []
    holds, _ = exhaustive_ramsey_check(3, 3, 6)
    if not holds:
        failures.append("(3,3,6) should force a monochromatic triangle")
    holds, counterexample = exhaustive_ramsey_check(3, 3, 5)
    if holds or verify_coloring(counterexample, (3, 3)) is not None:
        failures.append("(3,3,5) needs a verified counterexample")
    start = time.perf_counter()
    holds, _ = exhaustive_ramsey_check(3, 4, 9)
    elapsed = time.perf_counter() - start
    if not holds:
        failures.append("(3,4,9) should hold")
    if elapsed >= 600:
        failures.append(f"(3,4,9) took {elapsed:.0f}s")
    start = time.perf_counter()
    h8 = andrasfai_graph(3)
    h8_ok = find_clique(h8, 3) is None and find_independent_set(h8, 4) is None
    h8_elapsed = time.perf_counter() - start
    if not h8_ok or h8_elapsed >= 1.0:
        failures.append("H_8 verification failed or was slow")
    ok = not failures
    _report(8, "exact small Ramsey values", ok, f"(3,4,9) in {elapsed:.1f}s")
    assert ok, "; ".join(failures)


def test_criterion_09_bound_arithmetic():
    ok = (
        recurrence_upper_bound(3, 4) == 9
        and erdos_szekeres_bound(3, 4) == 10
        and erdos_triangle_multicolor_bound(2) == 6
        and erdos_triangle_multicolor_bound(3) == 17
        and multicolor_multinomial_bound((3, 3)) == 6
    )
    _report(9, "classical bounds, exact integers", ok)
    assert ok


def test_criterion_10_k17_coloring():
    col = k17_mod3_coloring()
    failures = []
    for color in range(3):
        if find_clique(col.color_class(color), 3) is None:
            failures.append(f"color {color} has no triangle")
    named = {0: (3, 9, 15), 1: (5, 11, 17), 2: (4, 10, 16)}
    for color, labels in named.items():
        for a, b in itertools.combinations(labels, 2):
            if col.color_of(a - 1, b - 1) != color:
                failures.append(f"pair {a},{b} not in color {color}")
    ok = not failures
    _report(10, "K_17 label-sum coloring", ok)
    assert ok, "; ".join(failures)


def test_criterion_11_turan_formula_and_graphs():
    failures = []
    start = time.perf_counter()
    for n in range(1, 8):
        for k in range(1, n + 1):
            if turan_max_edges(n, k) != max_edges_without_clique_oracle(n, k):
                failures.append(f"oracle disagrees at ({n},{k})")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"oracle sweep took {elapsed:.0f}s")

    g = turan_extremal_graph(7, 3)
    if not (
        g.edge_count == 16
        and turan_part_sizes(7, 3) == [3, 2, 2]
        and find_clique(g, 4) is None
    ):
        failures.append("(7,3) extremal graph wrong")
    g = turan_extremal_graph(13, 4)
    if not (
        g.edge_count == 63
        and turan_part_sizes(13, 4) == [4, 3, 3, 3]
        and turan_max_edges(13, 4) == 63
    ):
        failures.append("(13,4) extremal graph wrong")
    ok = not failures
    _report(11, "edge maxima match the oracle", ok, f"sweep {elapsed:.1f}s")
    assert ok, "; ".join(failures)


def test_criterion_12_tournament_paths():
    failures = []
    rng = random.Random(2026)
    for _ in range(1000):
        t = random_tournament(rng.randint(1, 100), rng)
        if not is_hamiltonian_path(t, redei_hamiltonian_path(t)):
            failures.append("random tournament without a valid path")
            break
    for n in range(6):
        for t in all_tournaments(n):
            if not is_hamiltonian_path(t, redei_hamiltonian_path(t)):
                failures.append(f"exhaustive failure at n={n}")
    for n in range(6):
        for t in all_tournaments(n):
            if count_hamiltonian_paths_oracle(t) % 2 == 0:
                failures.append(f"even path count at n={n}")
    for _ in range(200):
        t = random_tournament(rng.choice([6, 7]), rng)
        if count_hamiltonian_paths_oracle(t) % 2 == 0:
            failures.append("even path count in a sampled tournament")
            break
    ok = not failures
    _report(12, "every tournament has a path; counts are odd", ok)
    assert ok, "; ".join(failures)


def test_criterion_13_flagged_discrepancy_in_report():
    report = reproduce_all(tier="quick")
    entry = next(e for e in report.entries if e.claim == "cycle count formula (3,4)")
    ok = (
        entry.status == STATUS_FLAGGED
        and entry.status != STATUS_MATCH
        and entry.expected != entry.computed
        and any(ch.isdigit() for ch in entry.expected)
        and any(ch.isdigit() for ch in entry.computed)
        and report.counts()["mismatch"] == 0
        and report.exit_code == 0
    )
    _report(
        13,
        "report flags the (3,4) census, never a plain match",
        ok,
        f"status {entry.status}",
    )
    assert ok, (
        f"status={entry.status}, expected={entry.expected!r}, "
        f"computed={entry.computed!r}, exit={report.exit_code}"
    )
