"""Pass times scaled to a fixed reference computation.

The benchmark is meant for a small shared machine whose speed drifts:
the same pass of identical code reads 14 s in one run and 22 s in a run
a few minutes later, and a slow or fast spell lasts from seconds to
minutes.  Each timed phase therefore samples the machine's speed while
it runs: an interval timer interrupts the phase every SAMPLE_EVERY_S
and runs one slice of a fixed reference computation, and a few slices
run just before and after it.  Times are reported scaled to a machine
on which one slice takes NOMINAL_SLICE_S:

    reported = measured * NOMINAL_SLICE_S / (mean measured slice time)

The slices' own time is subtracted from the measured time; they add
about a sixth to a run's length.  Callers print the raw times and the
scale factors beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import time

NOMINAL_SLICE_S = 0.030
SAMPLE_EVERY_S = 0.2  # wall time between two sampled slices
EDGE_S = 0.5  # reference time just before and just after a phase


def _clique_count(adj: list[int], cand: int, need: int) -> int:
    if need == 0:
        return 1
    total = 0
    while cand:
        low = cand & -cand
        cand ^= low
        total += _clique_count(adj, cand & adj[low.bit_length() - 1], need - 1)
    return total


_ADJ = [sum(1 << v for v in range(34) if v != u and (u * v + u + v) % 3) for u in range(34)]


def reference_slice() -> int:
    """Fixed work in the mix ordo's kernels use: bitset recursion like
    the clique searches, then dict and set updates, small tuples and
    string split/join like the readers."""
    acc = _clique_count(_ADJ, (1 << len(_ADJ)) - 1, 5)
    table: dict[int, int] = {}
    pairs: set[tuple[int, int]] = set()
    for i in range(30_000):
        x = (i * 2654435761) & 0xFFFFF
        table[x & 4095] = i
        pairs.add((i & 1023, x & 7))
    words = " ".join(map(str, range(6000))).split()
    return acc + len(words) + len(table) + len(pairs)


class RefClock:
    """Runs reference slices and keeps the time they took apart."""

    def __init__(self) -> None:
        self.ref_wall = 0.0
        self.slices = 0
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self._sampling = False

    def sample(self, signum=None, frame=None) -> None:
        """Timer handler: one slice, unless a slow spell let timers pile up."""
        if self._sampling:
            return
        self._sampling = True
        try:
            self.run_slices(1)
        finally:
            self._sampling = False

    def run_slices(self, count: int) -> None:
        enabled = gc.isenabled()
        gc.disable()  # keep the slices from moving the program's collections
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            for _ in range(count):
                reference_slice()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if enabled:
                gc.enable()
        self.ref_wall += wall
        self.slices += count
        self.paused_wall += wall
        self.paused_cpu += cpu

    @property
    def factor(self) -> float:
        """Mean slice time over its nominal: above 1 on a slow spell."""
        return self.ref_wall / self.slices / NOMINAL_SLICE_S


def timed(body, edge_s: float = EDGE_S, sampled: bool = True):
    """Run body(); return (result, wall, cpu, raw wall, raw cpu, factor).

    wall and cpu are scaled to the nominal slice time; the raw values
    exclude the reference slices.  With `sampled` off only the slices
    before and after the phase set the factor, and nothing interrupts it.
    """
    clock = RefClock()
    edge = max(1, round(edge_s / NOMINAL_SLICE_S))
    clock.run_slices(edge)
    previous = None
    if sampled:
        previous = signal.signal(signal.SIGALRM, clock.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    paused_wall, paused_cpu = clock.paused_wall, clock.paused_cpu
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        result = body()
        raw_wall = time.perf_counter() - wall0 - (clock.paused_wall - paused_wall)
        raw_cpu = time.process_time() - cpu0 - (clock.paused_cpu - paused_cpu)
    finally:
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    clock.run_slices(edge)
    factor = clock.factor
    return result, raw_wall / factor, raw_cpu / factor, raw_wall, raw_cpu, factor
