"""Pure helpers shared by the workloads: percentiles, latency, freshness,
and the host-speed yardstick.

Nothing here imports :mod:`repro`; ``perfbench/test_common.py`` covers
every function.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import subprocess
import sys
import time

#: a tail percentile is only reported when at least this many samples
#: lie beyond it
MIN_TAIL_SAMPLES = 10


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile among *count*
    samples (rounded first, so 99.9% of 10,000 is rank 9,990)."""
    return max(1, math.ceil(round(count * q / 100.0, 9)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 100]) of *values*.

    The same rule as ``repro.serve.loadgen.percentile``: the smallest
    sample with at least ``q`` percent of the samples at or below it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the nearest-rank *q*-th."""
    return count - _rank(count, q)


def tail_supported(count: int, q: float) -> bool:
    """Whether *count* samples give the *q*-th percentile at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it."""
    return samples_beyond(count, q) >= MIN_TAIL_SAMPLES


def min_samples_for(q: float) -> int:
    """The fewest samples for which :func:`tail_supported` holds."""
    count = 1
    while not tail_supported(count, q):
        count += 1
    return count


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def block_medians(values: list[float], block: int, stat) -> float:
    """Median over consecutive *block*-sized chunks of ``stat(chunk)``.

    A run is cut into blocks large enough for the statistic (a p99 needs
    1,000 samples) and the median block is reported, so a few seconds of
    host interference move one block, not the result.  A trailing chunk
    shorter than *block* joins the last full one; fewer than *block*
    values make one block.
    """
    if not values:
        raise ValueError("no samples")
    starts = list(range(0, max(1, len(values) - block + 1), block))
    chunks = [values[a:a + block] for a in starts]
    chunks[-1] = values[starts[-1]:]
    return statistics.median(stat(chunk) for chunk in chunks)


def due_latencies(due: list[float], done: list[float]) -> list[float]:
    """Per-request latency measured from its *due* time, not its submit.

    In an open loop a stalled generator submits late; timing from the
    schedule charges that stall to every request it delayed.
    """
    if len(due) != len(done):
        raise ValueError("due and done differ in length")
    out = []
    for start, end in zip(due, done):
        if end < start:
            raise ValueError("request resolved before it was due")
        out.append(end - start)
    return out


def backlog_growing(
    due: list[float], done: list[float], slack: float = 0.05
) -> bool:
    """Whether the server fell behind the schedule during the run.

    Compares the median due-time latency of the last quarter of the
    requests with that of the first quarter: a backlog that keeps
    building raises every later request's wait.  *slack* (seconds) is
    the growth tolerated before the backlog counts as growing.
    """
    latencies = due_latencies(due, done)
    quarter = max(1, len(latencies) // 4)
    first = median(latencies[:quarter])
    last = median(latencies[-quarter:])
    return last - first > slack


def self_times(
    spans: list[tuple], subtract: list[bool] | None = None
) -> list[float]:
    """Self time of each span: its duration minus what its children cover.

    *spans* are ``(start, end, parent_index)`` tuples, parent -1 for a
    root.  The covered part is the union of the children's intervals
    clipped to the parent, so overlapping children are not subtracted
    twice.  With *subtract*, only spans whose flag is true count as
    covering their parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for index, (start, end, parent) in enumerate(spans):
        if parent >= 0 and (subtract is None or subtract[index]):
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(0.0, (end - start) - covered))
    return out


class VersionLog:
    """Which contents of a mutable object were current, and when.

    A write that starts at ``t0`` and ends at ``t1`` makes the new
    version possibly current from ``t0``, and keeps the old one possibly
    current until ``t1`` — a reader racing the write may see either.  An
    answer is fresh when it matches some version possibly current
    between the request's submission and its resolution.
    """

    def __init__(self, initial) -> None:
        # (possibly current from, possibly current until, payload)
        self._versions: list[list] = [[-math.inf, math.inf, initial]]

    def install(self, payload, started: float, finished: float) -> None:
        if finished < started:
            raise ValueError("write finished before it started")
        if started < self._versions[-1][0]:
            raise ValueError("writes must be installed in order")
        self._versions[-1][1] = finished
        self._versions.append([started, math.inf, payload])

    def __len__(self) -> int:
        return len(self._versions)

    def window(self, submitted: float, resolved: float) -> list[int]:
        """Indices of the versions possibly current at some instant
        between *submitted* and *resolved* (0 is the initial one)."""
        if resolved < submitted:
            raise ValueError("resolved before submitted")
        return [
            index
            for index, (lo, hi, _payload) in enumerate(self._versions)
            if lo <= resolved and hi >= submitted
        ]

    def candidates(self, submitted: float, resolved: float) -> list:
        """Payloads of the versions in :meth:`window`."""
        return [
            self._versions[index][2]
            for index in self.window(submitted, resolved)
        ]


def is_fresh(answer, log: VersionLog, submitted, resolved, same) -> bool:
    """Whether ``same(answer, version)`` holds for some version of *log*
    possibly current between *submitted* and *resolved*."""
    return any(
        same(answer, version)
        for version in log.candidates(submitted, resolved)
    )


def fifo_violations(responses: list[tuple[str, int, int]]) -> int:
    """Count per-session ordering violations.

    *responses* are ``(session_id, session_seq, completion_index)``
    triples in submission order.  Within a session the sequence numbers
    must run 1, 2, 3, ... and completions must come in that order; each
    out-of-place response counts once.
    """
    violations = 0
    last: dict[str, tuple[int, int]] = {}
    for session, seq, completed in responses:
        prev_seq, prev_done = last.get(session, (0, 0))
        if seq != prev_seq + 1 or completed <= prev_done:
            violations += 1
        last[session] = (seq, completed)
    return violations


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: the yardstick's duration at the reference host speed (seconds): its
#: median on the quiet 2-CPU x86_64 host the benchmark was built on.  A
#: time measured while the yardstick takes this long is reported as is
YARDSTICK_REFERENCE_S = 290e-6


def yardstick_work(rounds: int = 4) -> int:
    """A fixed pure-Python computation (dicts, strings, sorting, lists)
    that shares no code with the program under test."""
    total = 0
    for r in range(rounds):
        table: dict[str, int] = {}
        for i in range(200):
            key = f"k{(i * 31 + r) % 89}"
            table[key] = table.get(key, 0) + i
        rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        total += sum(len(k) + v for k, v in rows[:50])
        total += len([x for x in range(300) if x % 3])
    return total


def time_yardstick(work=yardstick_work, clock=time.perf_counter) -> float:
    """Run *work* twice and time the second run (the first refills the
    caches whatever ran before used)."""
    work()
    start = clock()
    work()
    return clock() - start


class YardstickProcess:
    """:func:`time_yardstick` in a separate interpreter, on request.

    Calling the object runs the yardstick once in the child and returns
    its duration.  The child shares no state with the program under
    test (threads, heap, garbage collector, switch interval, trace
    hooks), so whatever the program does to its own interpreter cannot
    slow the yardstick and be scaled away; only the host's speed moves
    it.  Use as a context manager: leaving it ends the child and waits
    for it.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--yardstick"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the yardstick process ended")
        return float(line)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "YardstickProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_yardstick(stdin=sys.stdin, stdout=sys.stdout) -> None:
    """The child of :class:`YardstickProcess`: one timed yardstick per
    line read, until its input closes."""
    for _ in range(3):
        yardstick_work()
    for _ in stdin:
        stdout.write(f"{time_yardstick()!r}\n")
        stdout.flush()


class Yardstick:
    """How fast the host runs Python, sampled between measured steps.

    On a shared host the speed of one core drifts by tens of percent
    within seconds, and every timing drifts with it.  The benchmark times
    the yardstick (through *measure*, a :class:`YardstickProcess` in the
    benchmark) between measured steps and scales each time by
    ``reference / (median yardstick duration around that moment)``, so
    times read as they would on a host where the yardstick takes
    :data:`YARDSTICK_REFERENCE_S`.
    """

    def __init__(
        self,
        measure,
        reference_s: float = YARDSTICK_REFERENCE_S,
        clock=time.perf_counter,
        width: int = 9,
    ) -> None:
        self.reference_s = reference_s
        self._measure = measure
        self._clock = clock
        self.width = width
        self._when: list[float] = []
        self._took: list[float] = []

    def sample(self) -> float:
        """Time the yardstick once; returns how long it took."""
        start = self._clock()
        took = self._measure()
        end = self._clock()
        self.record((start + end) / 2, took)
        return took

    def record(self, when: float, took: float) -> None:
        if self._when and when < self._when[-1]:
            raise ValueError("yardstick samples must come in time order")
        self._when.append(when)
        self._took.append(took)

    def __len__(self) -> int:
        return len(self._took)

    def factor_at(self, when: float) -> float:
        """``reference / median`` of the *width* samples nearest *when*."""
        if not self._took:
            raise ValueError("no yardstick samples")
        index = bisect.bisect_left(self._when, when)
        lo = max(0, min(index - self.width // 2, len(self._took) - self.width))
        window = self._took[lo:lo + self.width]
        return self.reference_s / statistics.median(window)

    def factor(self) -> float:
        """``reference / median`` of every sample."""
        if not self._took:
            raise ValueError("no yardstick samples")
        return self.reference_s / statistics.median(self._took)


if __name__ == "__main__":
    if sys.argv[1:] != ["--yardstick"]:
        sys.exit("usage: common.py --yardstick (the yardstick child)")
    serve_yardstick()
