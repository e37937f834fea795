"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    VersionLog,
    Yardstick,
    YardstickProcess,
    backlog_growing,
    block_medians,
    due_latencies,
    fifo_violations,
    is_fresh,
    min_samples_for,
    percentile,
    samples_beyond,
    self_times,
    tail_supported,
    time_yardstick,
    yardstick_work,
)


# -- percentiles and the sample-count rule -----------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile(values, 0) == 1
    assert percentile([7.0], 99) == 7.0


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == 3


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p99_needs_a_thousand_samples_for_ten_beyond():
    assert samples_beyond(1000, 99) == 10
    assert tail_supported(1000, 99)
    assert not tail_supported(999, 99)
    assert min_samples_for(99) == 1000
    assert min_samples_for(50) == 20
    assert min_samples_for(99.9) == 10000


def test_a_shed_request_misses_every_limit():
    waits = [0.001] * 985 + [math.inf] * 15
    assert percentile(waits, 99) == math.inf
    assert percentile(waits, 50) == 0.001
    # ten or fewer sheds stay beyond the p99 of 1,000 requests
    assert percentile([0.001] * 990 + [math.inf] * 10, 99) == 0.001


# -- due-time latency --------------------------------------------------
def test_latency_counts_from_due_time_not_submit():
    due = [10.0, 10.01, 10.02]  # 100 req/s
    # the generator stalled: all three went out at 10.05 and took 1 ms
    done = [10.051, 10.052, 10.053]
    assert due_latencies(due, done) == pytest.approx([0.051, 0.042, 0.033])


def test_due_latency_rejects_mismatched_or_early_results():
    with pytest.raises(ValueError):
        due_latencies([1.0], [])
    with pytest.raises(ValueError):
        due_latencies([2.0], [1.0])


def test_backlog_growing():
    due = [i / 100.0 for i in range(400)]
    steady = [t + 0.002 for t in due]
    assert not backlog_growing(due, steady)
    # each request waits 1 ms longer than the one before it
    falling_behind = [t + 0.002 + i * 0.001 for i, t in enumerate(due)]
    assert backlog_growing(due, falling_behind)


# -- freshness of answers under writes ---------------------------------
def test_version_window_without_writes():
    log = VersionLog("v0")
    assert log.candidates(1.0, 2.0) == ["v0"]
    assert log.window(1.0, 2.0) == [0]


def test_version_window_around_a_write():
    log = VersionLog("v0")
    log.install("v1", started=5.0, finished=5.5)
    log.install("v2", started=9.0, finished=9.1)
    assert log.candidates(1.0, 4.0) == ["v0"]
    # a request that raced the first write may see either version
    assert log.candidates(5.2, 5.3) == ["v0", "v1"]
    assert log.candidates(4.0, 5.2) == ["v0", "v1"]
    assert log.candidates(6.0, 8.0) == ["v1"]
    assert log.candidates(6.0, 9.05) == ["v1", "v2"]
    assert log.candidates(10.0, 11.0) == ["v2"]
    assert log.window(1.0, 11.0) == [0, 1, 2]
    assert len(log) == 3


def test_version_log_rejects_bad_windows():
    log = VersionLog("v0")
    with pytest.raises(ValueError):
        log.install("v1", started=2.0, finished=1.0)
    log.install("v1", started=5.0, finished=5.5)
    with pytest.raises(ValueError):
        log.install("v2", started=4.0, finished=6.0)
    with pytest.raises(ValueError):
        log.candidates(3.0, 2.0)


def test_stale_answer_detected():
    log = VersionLog({"x": 1})
    log.install({"x": 2}, started=5.0, finished=5.1)

    def same(answer, version):
        return answer == version["x"]

    assert is_fresh(1, log, 1.0, 2.0, same)
    assert not is_fresh(2, log, 1.0, 2.0, same)  # from the future
    assert is_fresh(2, log, 6.0, 7.0, same)
    assert not is_fresh(1, log, 6.0, 7.0, same)  # stale
    assert is_fresh(1, log, 4.9, 5.05, same)  # raced the write
    assert is_fresh(2, log, 4.9, 5.05, same)


# -- per-session FIFO --------------------------------------------------
def test_fifo_violations():
    ordered = [("a", 1, 1), ("b", 1, 2), ("a", 2, 3), ("b", 2, 4)]
    assert fifo_violations(ordered) == 0
    # a's second turn completed before its first
    swapped = [("a", 1, 3), ("a", 2, 2)]
    assert fifo_violations(swapped) == 1
    gap = [("a", 1, 1), ("a", 3, 2)]
    assert fifo_violations(gap) == 1


# -- self time ---------------------------------------------------------
def test_self_time_subtracts_children():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child
        (5.0, 6.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [(0.0, 2.0, -1), (1.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_with_selected_children():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (5.0, 6.0, 0)]
    # only the first child is subtracted from the root
    own = self_times(spans, subtract=[False, True, False])
    assert own[0] == pytest.approx(7.0)


# -- span recording ----------------------------------------------------
def test_tracer_records_nested_spans_per_request():
    from tracing import Tracer

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.begin(7)
    assert outer(1) == 4
    spans = tracer.spans()
    assert [s[0] for s in spans] == ["outer", "inner"]
    assert spans[1][3] == 0  # inner's parent is outer
    assert {s[4] for s in spans} == {7}
    assert self_times([(s[1], s[2], s[3]) for s in spans]) == [2.0, 1.0]


def test_tracer_tags_untagged_spans_at_resolution():
    from tracing import Tracer

    tracer = Tracer()
    work = tracer.wrap("work", lambda: None)
    work()
    tracer._tag_pending(41)
    work()
    tracer._tag_pending(42)
    assert [s[4] for s in tracer.spans()] == [41, 42]


# -- host speed --------------------------------------------------------
def test_yardstick_factor_follows_nearby_samples():
    yard = Yardstick(time_yardstick, reference_s=1.0, width=3)
    for when, took in [(0, 1.0), (1, 1.0), (2, 1.0), (3, 2.0), (4, 2.0),
                       (5, 2.0)]:
        yard.record(when, took)
    assert yard.factor_at(0.5) == 1.0  # host at reference speed
    assert yard.factor_at(4.5) == 0.5  # host twice as slow: halve times
    assert yard.factor_at(-10) == 1.0  # clamps to the first window
    assert yard.factor_at(99) == 0.5
    assert yard.factor() == 1.0 / 1.5
    assert len(yard) == 6


def test_yardstick_sample_records_the_measured_time():
    ticks = iter([10.0, 10.5])
    yard = Yardstick(measure=lambda: 0.5, reference_s=0.25,
                     clock=lambda: next(ticks))
    assert yard.sample() == 0.5
    assert yard.factor_at(10.25) == 0.5


def test_time_yardstick_times_the_second_run():
    ticks = iter([3.0, 3.5])
    runs = []
    took = time_yardstick(work=lambda: runs.append(1),
                          clock=lambda: next(ticks))
    assert took == 0.5
    assert len(runs) == 2  # one untimed warm-up run, one timed run


def test_yardstick_process_times_in_a_child_and_ends_it():
    with YardstickProcess() as child:
        took = [child() for _ in range(3)]
    assert all(0 < t < 1 for t in took)
    assert child._proc.returncode == 0
    with pytest.raises(ValueError):
        child()  # input closed


def test_yardstick_rejects_misuse():
    yard = Yardstick(time_yardstick)
    with pytest.raises(ValueError):
        yard.factor()
    yard.record(2.0, 1.0)
    with pytest.raises(ValueError):
        yard.record(1.0, 1.0)


def test_yardstick_work_is_deterministic():
    assert yardstick_work() == yardstick_work()


# -- block medians -----------------------------------------------------
def test_block_medians_ignore_one_bad_block():
    calm = [1.0] * 100
    noisy = [1.0] * 90 + [50.0] * 10
    values = calm + noisy + calm
    assert block_medians(values, 100, lambda c: percentile(c, 99)) == 1.0
    assert percentile(values, 99) == 50.0


def test_block_medians_merge_the_trailing_chunk():
    seen = []

    def stat(chunk):
        seen.append(len(chunk))
        return len(chunk)

    assert block_medians(list(range(250)), 100, stat) == 125
    assert seen == [100, 150]
    seen.clear()
    assert block_medians(list(range(40)), 100, stat) == 40
    assert seen == [40]
    with pytest.raises(ValueError):
        block_medians([], 100, stat)
