#!/usr/bin/env python3
"""The NL→answer benchmark: one command for every workload.

    python3 perfbench/run.py --workload cold_small --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Workloads (see ``perfbench/README.md``): ``cold_small`` drives
``NaturalLanguageInterface(db, lint=True).ask`` in a closed loop;
``served_mix`` drives ``repro.serve.Server`` in an open loop.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced pass over the same inputs, checks their answers
are identical, and reports the per-layer metrics.  Either way the output
is a table of every metric with its unit and sample count, the host, the
correctness checks, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts the requests the program did not answer: shed, or ended by an
unhandled server error (an exception out of ``ask`` ends the run).  An
error answer, the interface's reply to a question it cannot resolve
("translation failed"), is an answer: ``accuracy`` scores it wrong and
``error_rate`` counts it.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time

from common import (
    YARDSTICK_REFERENCE_S,
    Yardstick,
    YardstickProcess,
    backlog_growing,
    block_medians,
    due_latencies,
    fifo_violations,
    median,
    min_samples_for,
    percentile,
)
from tracing import Tracer, layer_metrics, plan_figures

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_small", "served_mix")
#: where a traced run writes its spans, under the checkout
SPAN_DIR = os.path.join(ROOT, ".perfbench")
#: set-ups per run (setup_s is their median): at least MIN_SETUPS,
#: more while they have taken under SETUP_BUDGET_S in all
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 2.0
#: yardstick samples taken around each set-up
YARDSTICK_SAMPLES = 5
#: samples per block for the block-median statistics: a p99 needs ten
#: samples beyond it
BLOCK = min_samples_for(99)
#: requests per block for the served rate: ten blocks per rung, so the
#: few slowest requests of a rung move one block, not the rate
RATE_BLOCK = 100

END_TO_END = {
    "setup_s": "s",
    "turn_p50_ms": "ms",
    "turns_per_s": "1/s",
    "accuracy": "fraction",
    "error_rate": "fraction",
    "served_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

SHED_REASONS = (
    "queue-full", "session-queue-full", "session-limit", "draining",
    "shutdown", "session-closed", "deadline",
)

#: the p99 latencies and served_max_rps are per-layer figures, taken from
#: the untraced pass of a traced run: on the served path the p99s swing
#: by half between runs with the host's load, and the top rung passes or
#: misses its p99 limit with it, too much to gate on (see README.md)
PER_LAYER = {
    "turn_p99_ms": "ms",
    "served_p99_ms": "ms",
    "served_max_rps": "req/s",
    **{f"pipeline.{stage}_us": "us" for stage in
       ("preprocess", "translate", "lint", "execute", "present")},
    **{f"pipeline.{stage}_share": "fraction" for stage in
       ("preprocess", "translate", "lint", "execute", "present")},
    "pipeline.glue_us": "us",
    "pipeline.memo_hit_ratio": "fraction",
    "parsers.parse_us": "us",
    "sql.to_sql_calls_per_turn": "count",
    "sql.parse_sql_calls_per_turn": "count",
    "vis.parse_vql_calls_per_turn": "count",
    "lint.decide_us": "us",
    "lint.candidates_per_turn": "count",
    "lint.pruned_ratio": "fraction",
    "rescache.overhead_us": "us",
    "rescache.copy_us": "us",
    "rescache.hit_ratio": "fraction",
    "rescache.evictions": "count",
    "rescache.bytes": "bytes",
    "plan.compile_us": "us",
    "plan.run_us": "us",
    "plan.cache_hit_ratio": "fraction",
    "parse.cache_hit_ratio": "fraction",
    "plan.correlated_queries": "count",
    "vector.batches": "count",
    "vector.fallback_ratio": "fraction",
    "stats.builds": "count",
    "index.builds": "count",
    "vis.render_us": "us",
    "vis.spec_us": "us",
    "session.memo_hit_ratio": "fraction",
    "serve.queue_ms_p50": "ms",
    "serve.queue_ms_p99": "ms",
    "serve.service_ms_p50": "ms",
    "serve.service_ms_p99": "ms",
    "serve.coalesced_ratio": "fraction",
    **{f"serve.shed.{reason}": "count" for reason in SHED_REASONS},
    "serve.backpressure_max": "fraction",
    "resilience.degraded_turns": "count",
    "resilience.retries": "count",
    "breaker.trips": "count",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_ratio": "fraction",
    "trace.spans_per_turn": "count",
}

#: registry counters read as deltas around a pass
COUNTERS = {
    "resilience.degraded_turns": "repro.pipeline.degraded.turns",
    "resilience.retries": "repro.resilience.retry.retries",
    "breaker.trips": "repro.resilience.breaker.trips",
    "vector.batches": "repro.sql.vector.batches",
    "session.turns": "repro.session.turns",
    "session.hits": "repro.session.turn_cache.hits",
}


class Report:
    """Metrics with units and sample counts, plus named checks."""

    def __init__(self, units: dict) -> None:
        self.units = units
        self.values: dict[str, tuple[float, int]] = {}
        self.checks: list[tuple[str, bool]] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0

    def put(self, name: str, value: float, samples: int) -> None:
        if name not in self.units:
            raise KeyError(f"undeclared metric {name!r}")
        self.values[name] = (float(value), int(samples))

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok in self.checks)

    def emit(self, header: str) -> None:
        missing = sorted(set(self.units) - set(self.values))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        print(header)
        print(f"host: nproc={os.cpu_count()} "
              f"python={platform.python_version()} "
              f"machine={platform.machine()}")
        width = max(len(name) for name in self.units)
        print(f"{'metric'.ljust(width)}  {'value':>14}  {'unit':<8}  samples")
        for name in self.units:
            value, samples = self.values[name]
            print(f"{name.ljust(width)}  {value:>14.6g}  "
                  f"{self.units[name]:<8}  {samples}")
        for note in self.notes:
            print(note)
        for label, ok in self.checks:
            print(f"check {'ok  ' if ok else 'FAIL'} {label}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.values[name][0],
                       "unit": self.units[name]}
                for name in self.units
            },
        }))


def repeat_setup(setup, yardstick) -> tuple[list[float], list[float], object]:
    """Call *setup* (returning ``(seconds, state)``) several times, with
    yardstick samples around each call.

    Returns the raw times, the same times at the yardstick's reference
    speed, and the state of the last call; earlier states are released
    with their ``close`` when they have one.
    """
    raw: list[float] = []
    middles: list[float] = []
    state = None
    while len(raw) < MIN_SETUPS or (
        len(raw) < MAX_SETUPS and sum(raw) < SETUP_BUDGET_S
    ):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None
        gc.collect()
        for _ in range(YARDSTICK_SAMPLES):
            yardstick.sample()
        elapsed, state = setup()
        raw.append(elapsed)
        middles.append(time.perf_counter() - elapsed / 2)
    for _ in range(YARDSTICK_SAMPLES):
        yardstick.sample()
    scaled = [t * yardstick.factor_at(m) for t, m in zip(raw, middles)]
    return raw, scaled, state


def per_second(seconds: list[float]) -> float:
    """Events per second, for events that took *seconds* one after
    another."""
    return len(seconds) / sum(seconds)


def blocked_ms(seconds: list[float], q: float) -> float:
    """The median over blocks of :data:`BLOCK` samples of the *q*-th
    percentile, in ms (see ``common.block_medians``)."""

    return block_medians(seconds, BLOCK, lambda c: percentile(c, q)) * 1e3


def yardstick_note(yard) -> str:
    return (
        f"host speed: {len(yard)} yardstick samples, median "
        f"{YARDSTICK_REFERENCE_S / yard.factor() * 1e6:.1f} us against "
        f"{YARDSTICK_REFERENCE_S * 1e6:.0f} us reference; times above are "
        f"scaled to the reference speed"
    )


def seed_note(seed: int, data_seed: int) -> str:
    if data_seed == seed:
        return f"inputs generated from seed {seed}"
    return (f"inputs generated from seed {data_seed}: the dataset builders "
            f"cannot instantiate seed {seed} (see direct.with_redraws)")


def settle() -> None:
    """Collect garbage and freeze what survives before a timed pass, so
    the pass's collections do not rescan the inputs the benchmark holds."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def counters() -> dict:
    from repro.obs.metrics import get_registry

    registry = get_registry()
    return {key: registry.counter(name).value
            for key, name in COUNTERS.items()}


def engine_counts() -> dict:
    from repro.sql.index import index_cache_stats
    from repro.sql.stats import stats_cache_stats

    index = index_cache_stats()
    return {
        "stats.builds": stats_cache_stats()["collections"],
        "index.builds": index["hash_builds"] + index["sorted_builds"],
    }


def cache_figures(report: Report, before: dict, after: dict) -> None:
    """Per-layer cache and counter figures of one traced pass (the
    set-up before it emptied the plan, parse and result caches)."""
    from repro.sql.plan import parse_cache_stats, plan_cache_stats
    from repro.sql.rescache import rescache_stats

    def hit_ratio(stats: dict) -> tuple[float, int]:
        probes = stats["hits"] + stats["misses"]
        return (stats["hits"] / probes if probes else 0.0), probes

    rescache = rescache_stats()
    report.put("rescache.hit_ratio", *hit_ratio(rescache))
    report.put("rescache.evictions", rescache["evictions"], 1)
    report.put("rescache.bytes", rescache["bytes"], 1)
    report.put("plan.cache_hit_ratio", *hit_ratio(plan_cache_stats()))
    report.put("parse.cache_hit_ratio", *hit_ratio(parse_cache_stats()))
    for key in ("stats.builds", "index.builds", "vector.batches",
                "resilience.degraded_turns", "resilience.retries",
                "breaker.trips"):
        report.put(key, after[key] - before[key], 1)
    turns = after["session.turns"] - before["session.turns"]
    hits = after["session.hits"] - before["session.hits"]
    report.put("session.memo_hit_ratio", hits / turns if turns else 0.0,
               turns)


def put_layers(report: Report, tracer, turn_ids: list, turn_span: str,
               label: str) -> None:
    figures = {**layer_metrics(tracer, turn_ids, turn_span),
               **plan_figures(tracer)}
    for name, (value, samples) in figures.items():
        report.put(name, value, samples)
    os.makedirs(SPAN_DIR, exist_ok=True)
    path = os.path.join(SPAN_DIR, f"spans-{label}.jsonl.gz")
    report.notes.append(f"{tracer.write(path)} spans written to {path}")


# ----------------------------------------------------------------------
# cold_small
# ----------------------------------------------------------------------
def direct_e2e(report: Report, yard: Yardstick, seed: int,
               seconds: float) -> None:
    import direct

    turns, input_dbs, data_seed = direct.build_turns(seed, seconds)
    report.notes.append(seed_note(seed, data_seed))
    expected = direct.fingerprint(input_dbs)
    del input_dbs
    raw_setups, setups, (databases, nlis) = repeat_setup(
        lambda: direct.setup(data_seed), yard
    )
    report.check("set-up regenerates the question generator's databases",
                 direct.fingerprint(databases) == expected)
    settle()
    records, wall = direct.run_pass(
        turns, nlis, seconds, direct.MIN_TURNS, yardstick=yard
    )
    count = len(records)
    report.check(f"at least {direct.MIN_TURNS} turns for a p99 "
                 f"({count} asked of a pool of {len(turns)})",
                 count >= direct.MIN_TURNS)
    factors = [yard.factor_at((r.due + r.done) / 2) for r in records]
    raw_turns = [r.done - r.started for r in records]
    # closed loop: a question is due when the previous answer arrives
    raw_waits = due_latencies([r.due for r in records],
                              [r.done for r in records])
    turn_times = [t * f for t, f in zip(raw_turns, factors)]
    waits = [t * f for t, f in zip(raw_waits, factors)]
    right = sum(direct.is_correct(r, databases) for r in records)
    errors = sum(not r.answer.ok for r in records)
    checked, disagreements = direct.engine_disagreements(records, databases)
    report.check(f"engine agreement: {checked} answered turns match "
                 f"execute_reference ({disagreements} differ)",
                 disagreements == 0)
    degraded = sum(bool(r.answer.degraded) for r in records)
    # every turn was answered: an exception out of ask() ends the run
    report.attempted, report.failed = count, 0
    rate = block_medians(waits, BLOCK, per_second)
    report.put("setup_s", median(setups), len(setups))
    report.put("turn_p50_ms", blocked_ms(turn_times, 50), count)
    report.put("turns_per_s", rate, count)
    report.put("accuracy", right / count, count)
    report.put("error_rate", errors / count, count)
    report.put("served_p50_ms", blocked_ms(waits, 50), count)
    report.put("peak_rss_mb", peak_rss_mb(), 1)
    report.notes += [
        f"cold_small: {count} turns in {wall:.3f} s, {degraded} degraded",
        f"not gated: turn_p99_ms {blocked_ms(turn_times, 99):.6g}, "
        f"served_p99_ms {blocked_ms(waits, 99):.6g}",
        f"as measured: setup_s {median(raw_setups):.6g}, turn_p50_ms "
        f"{blocked_ms(raw_turns, 50):.6g}, turn_p99_ms "
        f"{blocked_ms(raw_turns, 99):.6g}, turns_per_s "
        f"{block_medians(raw_waits, BLOCK, per_second):.6g}",
        yardstick_note(yard),
    ]


def direct_layers(report: Report, yard: Yardstick, seed: int,
                  seconds: float) -> None:
    import direct

    turns, _, data_seed = direct.build_turns(seed, seconds)
    report.notes.append(seed_note(seed, data_seed))
    _, (databases, nlis) = direct.setup(data_seed)
    settle()
    plain, plain_wall = direct.run_pass(
        turns, nlis, seconds / 2, 0, yardstick=yard
    )
    del databases, nlis
    _, (databases, nlis) = direct.setup(data_seed)
    settle()
    before = {**counters(), **engine_counts()}
    tracer = Tracer()
    with tracer:
        traced, traced_wall = direct.run_pass(
            turns, nlis, 0, 0, yardstick=yard, tracer=tracer,
            limit=len(plain),
        )
    after = {**counters(), **engine_counts()}
    count = len(traced)
    differ = sum(
        direct.answer_key(a.answer) != direct.answer_key(b.answer)
        for a, b in zip(plain, traced)
    )
    report.check(f"traced pass answers {count} turns identically to the "
                 f"untraced pass ({differ} differ)",
                 differ == 0 and count == len(plain))
    checked, disagreements = direct.engine_disagreements(traced, databases)
    report.check(f"engine agreement: {checked} answered turns match "
                 f"execute_reference ({disagreements} differ)",
                 disagreements == 0)
    report.attempted, report.failed = count, 0
    put_layers(report, tracer, list(range(count)),
               "NaturalLanguageInterface.ask", f"cold_small-seed{seed}")
    cache_figures(report, before, after)

    def scaled(records: list, since: str) -> list[float]:
        return [(r.done - getattr(r, since))
                * yard.factor_at((r.due + r.done) / 2) for r in records]

    report.put("trace.overhead_ratio",
               median(scaled(traced, "started"))
               / median(scaled(plain, "started")) - 1, count)
    report.put("turn_p99_ms", blocked_ms(scaled(plain, "started"), 99),
               len(plain))
    report.put("served_p99_ms", blocked_ms(scaled(plain, "due"), 99),
               len(plain))
    # one closed-loop caller has no rate ladder: the rate it sustained
    report.put("served_max_rps",
               block_medians(scaled(plain, "due"), BLOCK, per_second),
               len(plain))
    for name in ("serve.queue_ms_p50", "serve.queue_ms_p99",
                 "serve.service_ms_p50", "serve.service_ms_p99",
                 "serve.coalesced_ratio", "serve.backpressure_max",
                 "loadgen.late_ms_p99"):
        report.put(name, 0.0, 0)
    for reason in SHED_REASONS:
        report.put(f"serve.shed.{reason}", 0, 0)
    report.notes.append(
        f"cold_small: untraced {len(plain)} turns in {plain_wall:.3f} s, "
        f"traced in {traced_wall:.3f} s"
    )


# ----------------------------------------------------------------------
# served_mix
# ----------------------------------------------------------------------
def rung_figures(sent: list, late: list, yard: Yardstick) -> dict:
    """One rung's figures, latencies scaled to the yardstick's reference
    speed; a shed request counts as infinitely late."""

    answered = [s for s in sent if not s.response.shed]
    raw_waits = [
        t if not s.response.shed else float("inf")
        for t, s in zip(
            due_latencies([s.due for s in sent], [s.done for s in sent]),
            sent,
        )
    ]
    waits = [t * yard.factor_at((s.due + s.done) / 2)
             for t, s in zip(raw_waits, sent)]
    raw_service = [s.response.service_seconds for s in answered]
    service = [t * yard.factor_at((s.due + s.done) / 2)
               for t, s in zip(raw_service, answered)]
    first_due = min(s.due for s in sent)
    last_done = max(s.done for s in sent)
    return {
        "requests": len(sent),
        "answered": len(answered),
        "shed": len(sent) - len(answered),
        "p50_ms": percentile(waits, 50) * 1e3,
        "p99_ms": percentile(waits, 99) * 1e3,
        "raw_p50_ms": percentile(raw_waits, 50) * 1e3,
        "raw_p99_ms": percentile(raw_waits, 99) * 1e3,
        "service_p50_ms": percentile(service, 50) * 1e3,
        "service_p99_ms": percentile(service, 99) * 1e3,
        # turns answered per second a worker spent serving them
        "service_rate": block_medians(service, RATE_BLOCK, per_second),
        "raw_service_rate": block_medians(raw_service, RATE_BLOCK,
                                          per_second),
        "late_p99_ms": percentile(late, 99) * 1e3,
        "rate": len(answered) / (last_done - first_due),
        "growing": backlog_growing([s.due for s in sent],
                                   [s.done for s in sent]),
    }


def meets_limit(fig: dict) -> bool:
    """Whether a rung met the ladder's limit: nothing shed, no growing
    backlog, and a p99 (as measured) within the latency limit."""
    import served

    return (fig["shed"] == 0 and not fig["growing"]
            and fig["raw_p99_ms"] <= served.LATENCY_LIMIT_S * 1e3)


def max_rps(figs: list[dict]) -> float:
    """The highest achieved rate of a rung that met the limit (0 if none
    did)."""
    return max((fig["rate"] for fig in figs if meets_limit(fig)),
               default=0.0)


def served_checks(report: Report, run, sent: list) -> int:
    """Check FIFO order, unhandled errors and freshness; return how many
    requests failed: shed, or ended by an unhandled server error."""
    import served

    violations = fifo_violations([
        (s.planned.session_id, s.response.session_seq,
         s.response.completion_index)
        for s in sent if not s.response.shed
    ])
    report.check(f"per-session FIFO over {len(sent)} requests "
                 f"({violations} violations)", violations == 0)
    unhandled = run.server.unhandled_errors()
    report.check(f"no unhandled server errors ({len(unhandled)})",
                 not unhandled)
    stale = served.stale_answers(run, sent)
    report.check(f"no stale answers across {run.writes} writes "
                 f"({stale} stale)", stale == 0)
    return sum(s.response.shed for s in sent) + len(unhandled)


def served_e2e(report: Report, yard: Yardstick, seed: int,
               seconds: float) -> None:
    import direct
    import served

    _, data_seed = direct.with_redraws(served.build_inputs, seed)
    report.notes.append(seed_note(seed, data_seed))
    raw_setups, setups, run = repeat_setup(
        lambda: served.setup(seed, data_seed), yard
    )
    rates = served.rung_rates(seconds)
    sizes = [served.REQUESTS_PER_RUNG] * len(rates)
    script = served.build_schedule(seed, run.dialogues, sum(sizes))
    parts = served.split_rungs(script, sizes)
    passes = []
    try:
        for rate, chunk in zip(rates, parts):
            settle()
            sent, late = run.rung(chunk, rate, yardstick=yard)
            passes.append((rate, sent, late))
        yard.sample()
    finally:
        run.close()
    every = [s for _, sent, _ in passes for s in sent]
    passes = [(rate, sent, rung_figures(sent, late, yard))
              for rate, sent, late in passes]
    failed = served_checks(report, run, every)
    count = len(every)
    errors = sum(not s.response.ok for s in every)
    right = sum(served.correct(run, s) for s in every)
    # base-rate figures: the median over every base-rate rung after the
    # warm-up; a rung whose generator ran late is marked, not dropped
    base_rate = served.LADDER[0]
    base = [fig for rate, _, fig in passes[1:] if rate == base_rate]
    late_limit_ms = served.LATE_LIMIT_S * 1e3
    for index, (rate, sent, fig) in enumerate(passes):
        meets = meets_limit(fig)
        role = " (warm-up)" if index == 0 else ""
        if fig["late_p99_ms"] > late_limit_ms:
            role += f" INVALID: generator late p99 > {late_limit_ms:g} ms"
        report.notes.append(
            f"rung {rate:g} req/s{role}: "
            f"{fig['requests']} requests, achieved {fig['rate']:.1f}/s, "
            f"p50 {fig['raw_p50_ms']:.2f} ms, p99 {fig['raw_p99_ms']:.2f} ms "
            f"(scaled {fig['p50_ms']:.2f}, {fig['p99_ms']:.2f}), "
            f"generator late p99 {fig['late_p99_ms']:.2f} ms, shed "
            f"{fig['shed']}, backlog "
            f"{'growing' if fig['growing'] else 'steady'} -> "
            f"{'meets' if meets else 'misses'} the "
            f"{served.LATENCY_LIMIT_S * 1e3:g} ms p99 limit"
        )
    invalid = sum(fig["late_p99_ms"] > late_limit_ms for fig in base)
    report.notes.append(
        f"base-rate figures: median over all {len(base)} measured "
        f"{base_rate:g} req/s rungs, {invalid} of them invalid"
    )
    answered = sum(fig["answered"] for fig in base)
    requests = sum(fig["requests"] for fig in base)

    def base_median(key: str) -> float:
        return median([fig[key] for fig in base])

    report.attempted, report.failed = count, failed
    report.put("setup_s", median(setups), len(setups))
    report.put("turn_p50_ms", base_median("service_p50_ms"), answered)
    report.put("turns_per_s", base_median("service_rate"), answered)
    report.put("accuracy", right / count, count)
    report.put("error_rate", errors / count, count)
    report.put("served_p50_ms", base_median("p50_ms"), requests)
    report.put("peak_rss_mb", peak_rss_mb(), 1)
    report.notes += [
        f"not gated: turn_p99_ms {base_median('service_p99_ms'):.6g}, "
        f"served_p99_ms {base_median('p99_ms'):.6g}, served_max_rps "
        f"{max_rps([fig for _, _, fig in passes]):.6g}",
        f"as measured: setup_s {median(raw_setups):.6g}, turns_per_s "
        f"{base_median('raw_service_rate'):.6g}",
        yardstick_note(yard) + " (generator lateness, rates and the "
        "rungs' p99 limit use times as measured)",
    ]


def served_layers(report: Report, yard: Yardstick, seed: int,
                  seconds: float) -> None:
    import direct
    import served

    _, data_seed = direct.with_redraws(served.build_inputs, seed)
    report.notes.append(seed_note(seed, data_seed))
    _, run = served.setup(seed, data_seed)
    # the base-rate traffic of a run of half the length, then one rung
    # at each higher rate of the ladder; the traced pass replays the
    # base-rate part
    size = served.REQUESTS_PER_RUNG * served.base_rungs(seconds / 2)
    higher = list(served.LADDER[1:])
    sizes = [size] + [served.REQUESTS_PER_RUNG] * len(higher)
    parts = served.split_rungs(
        served.build_schedule(seed, run.dialogues, sum(sizes)), sizes
    )
    script = parts[0]
    rate = served.LADDER[0]
    settle()
    try:
        plain, plain_late = run.rung(script, rate, yardstick=yard)
        ladder = [rung_figures(plain, plain_late, yard)]
        every = list(plain)
        for top, chunk in zip(higher, parts[1:]):
            settle()
            sent, late = run.rung(chunk, top, yardstick=yard)
            ladder.append(rung_figures(sent, late, yard))
            every += sent
    finally:
        run.close()
    served_checks(report, run, every)
    _, traced_run = served.setup(seed, data_seed)
    settle()
    before = {**counters(), **engine_counts()}
    tracer = Tracer()
    with tracer:
        try:
            traced, _ = traced_run.rung(script, rate)
        finally:
            traced_run.close()
    after = {**counters(), **engine_counts()}
    failed = served_checks(report, traced_run, traced)
    # a request racing a write may see either version, so compare the
    # requests that saw one version, the same one, in both passes
    compared = differ = 0
    for a, b in zip(plain, traced):
        window_a = run.logs[a.planned.db_id].window(a.submitted, a.done)
        window_b = traced_run.logs[b.planned.db_id].window(
            b.submitted, b.done)
        if len(window_a) == 1 and window_a == window_b:
            compared += 1
            differ += served.answer_key(a.response) != served.answer_key(
                b.response)
    report.check(f"traced pass answers {compared} single-version requests "
                 f"identically to the untraced pass ({differ} differ)",
                 differ == 0 and compared > len(plain) // 2)
    report.attempted, report.failed = len(traced), failed
    put_layers(report, tracer, [s.ticket.request.request_id for s in traced],
               "InteractiveSession.ask", f"served_mix-seed{seed}")
    cache_figures(report, before, after)
    answered = [s.response for s in traced if not s.response.shed]
    queue = [r.queue_seconds for r in answered]
    service = [r.service_seconds for r in answered]
    report.put("serve.queue_ms_p50", percentile(queue, 50) * 1e3, len(queue))
    report.put("serve.queue_ms_p99", percentile(queue, 99) * 1e3, len(queue))
    report.put("serve.service_ms_p50", percentile(service, 50) * 1e3,
               len(service))
    report.put("serve.service_ms_p99", percentile(service, 99) * 1e3,
               len(service))
    report.put("serve.coalesced_ratio",
               sum(r.coalesced for r in answered) / len(answered),
               len(answered))
    for reason in SHED_REASONS:
        report.put(
            f"serve.shed.{reason}",
            sum(s.response.shed_reason is not None
                and s.response.shed_reason.value == reason for s in traced),
            len(traced),
        )
    report.put("serve.backpressure_max",
               max(s.response.backpressure for s in traced), len(traced))
    plain_fig = ladder[0]
    report.put("served_max_rps", max_rps(ladder), len(ladder))
    report.put("loadgen.late_ms_p99", plain_fig["late_p99_ms"],
               len(plain_late))
    report.put("turn_p99_ms", plain_fig["service_p99_ms"],
               plain_fig["answered"])
    report.put("served_p99_ms", plain_fig["p99_ms"], plain_fig["requests"])
    plain_service = [s.response.service_seconds for s in plain
                     if not s.response.shed]
    report.put("trace.overhead_ratio",
               median(service) / median(plain_service) - 1, len(service))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    # direct, served and the repro.* helpers import the program, so
    # they are imported where used, after this
    sys.path.insert(0, src)

    header = (f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
    report = Report(PER_LAYER if args.trace else END_TO_END)
    measure = {
        ("cold_small", 0): direct_e2e,
        ("cold_small", 1): direct_layers,
        ("served_mix", 0): served_e2e,
        ("served_mix", 1): served_layers,
    }[args.workload, args.trace]
    with YardstickProcess() as child:
        measure(report, Yardstick(child), args.seed, args.seconds)
    report.emit(header)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
