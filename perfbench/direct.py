"""``cold_small``: one caller, closed loop, direct path.

Every turn is a question never asked before in the run, on a freshly
generated database, through ``NaturalLanguageInterface(db,
lint=True).ask`` after ``reset()``.  Spider-like SQL questions
(``build_cross_domain``) and nvBench-like chart questions
(``build_nvbench_like``) are mixed 3:1.  At 24 rows per table translate,
lint and execute take comparable shares of a turn.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass

from repro import NaturalLanguageInterface
from repro.datasets.sql import build_cross_domain
from repro.datasets.vis import build_nvbench_like
from repro.errors import DatasetError
from repro.metrics.execution import execution_match, results_equal
from repro.metrics.vis_match import vis_exact_match
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches
from repro.vis import charts

from common import min_samples_for

#: rows per generated table
ROWS = 24
#: questions generated per second of measurement.  The pass asks the
#: whole pool unless the time runs out first; on the 2-CPU host this was
#: built on, the ~18,500 distinct questions of a 30 s run took 16-25 s,
#: so a run asks the same questions and holds the same answers in memory
#: (which peak_rss_mb counts) however fast the host or the program is
POOL_PER_SECOND = 600
#: SQL questions per chart question
SQL_PER_VIS = 3
#: databases per domain for each generator: more databases make a
#: seed's heaviest questions a smaller share of the tail
COPIES_PER_DOMAIN = 4
#: a turn-latency p99 needs ten samples beyond it
MIN_TURNS = min_samples_for(99)
#: generator seeds tried per ``--seed`` (see :func:`with_redraws`), and
#: the distance between them
MAX_DRAWS = 5
SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Turn:
    db_id: str
    question: str
    gold_sql: str
    gold_vql: str | None


def _smooth_order(groups: dict[str, list], rng: random.Random) -> list:
    """Interleave *groups* so every prefix holds each in proportion.

    The k-th of n items in a group sorts at (k + u) / n with one seeded
    offset u per group, so a pass cut short by the clock still sees the
    workload's full mix of question patterns.
    """
    keyed = []
    for name in sorted(groups):
        items = groups[name]
        offset = rng.random()
        for k, item in enumerate(items):
            keyed.append(((k + offset) / len(items), name, k, item))
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


def with_redraws(build, seed: int) -> tuple[object, int]:
    """``(build(s), s)`` for the first generator seed ``s = seed + k *
    SEED_STRIDE`` (k = 0, 1, ...) for which the dataset builders succeed.

    A builder raises ``DatasetError`` when one domain's question patterns
    all fail to instantiate 50 times in a row (``--seed 306`` does so for
    the ``cold_small`` pool); such a seed yields no inputs, so it is
    redrawn, the same way on every run of *seed*.
    """
    for k in range(MAX_DRAWS):
        data_seed = seed + k * SEED_STRIDE
        try:
            return build(data_seed), data_seed
        except DatasetError:
            continue
    raise DatasetError(f"no inputs for seed {seed} in {MAX_DRAWS} draws")


def build_turns(seed: int, seconds: float) -> tuple[list[Turn], dict, int]:
    """The seeded question pool — distinct (database, question) pairs —
    the databases it was generated on, and the generator seed used (see
    :func:`with_redraws`)."""
    wanted = int(POOL_PER_SECOND * seconds) + MIN_TURNS
    n_vis = wanted // (SQL_PER_VIS + 1) + 1

    def build(data_seed: int) -> tuple:
        sql = build_cross_domain(
            num_examples=wanted - n_vis, copies_per_domain=COPIES_PER_DOMAIN,
            rows_per_table=ROWS, seed=data_seed,
        )
        vis = build_nvbench_like(
            num_examples=n_vis, copies_per_domain=COPIES_PER_DOMAIN,
            rows_per_table=ROWS, seed=data_seed,
        )
        return sql, vis

    (sql, vis), data_seed = with_redraws(build, seed)
    seen: set[tuple[str, str]] = set()
    groups: dict[str, list[Turn]] = {}
    for kind, dataset in (("sql", sql), ("vis", vis)):
        for example in dataset.examples:
            key = (example.db_id, example.question)
            if key in seen:
                continue
            seen.add(key)
            groups.setdefault(f"{kind}:{example.pattern}", []).append(
                Turn(
                    db_id=example.db_id,
                    question=example.question,
                    gold_sql=example.sql,
                    gold_vql=example.vql,
                )
            )
    databases = {**sql.databases, **vis.databases}
    return _smooth_order(groups, random.Random(seed)), databases, data_seed


def make_databases(seed: int) -> dict:
    """Generate the workload's databases (the same ones :func:`build_turns`
    generated its questions on: each builder draws its database seed
    before it samples a single question)."""
    databases = dict(
        build_cross_domain(
            num_examples=1, copies_per_domain=COPIES_PER_DOMAIN,
            rows_per_table=ROWS, seed=seed,
        ).databases
    )
    databases.update(
        build_nvbench_like(
            num_examples=1, copies_per_domain=COPIES_PER_DOMAIN,
            rows_per_table=ROWS, seed=seed,
        ).databases
    )
    return databases


def setup(seed: int) -> tuple[float, tuple[dict, dict]]:
    """Databases plus one lint-gated NLI per database, timed: returns
    ``(seconds, (databases, nlis))``."""
    start = time.perf_counter()
    databases = make_databases(seed)
    nlis = {
        db_id: NaturalLanguageInterface(db, lint=True)
        for db_id, db in databases.items()
    }
    elapsed = time.perf_counter() - start
    # every program cache starts empty: new databases miss the per-table
    # caches by identity, and this drops the plan/parse/result LRUs
    clear_plan_caches()
    return elapsed, (databases, nlis)


def fingerprint(databases: dict) -> int:
    """A hash of every row of every table, to compare generations."""
    return hash(tuple(
        (db_id, name, tuple(databases[db_id].tables[name].rows))
        for db_id in sorted(databases)
        for name in sorted(databases[db_id].tables)
    ))


@dataclass
class Record:
    turn: Turn
    due: float
    started: float
    done: float
    answer: object


#: seconds between yardstick samples during a pass
YARDSTICK_EVERY_S = 0.03


def run_pass(
    turns: list[Turn],
    nlis: dict,
    seconds: float,
    min_turns: int,
    yardstick=None,
    tracer=None,
    limit: int | None = None,
) -> tuple[list[Record], float]:
    """Ask turns in order until *seconds* have passed and at least
    *min_turns* were asked (or *limit* turns, or the pool, run out).

    Returns the records and the timed wall time.  Closed loop: each
    question is due the moment the previous answer arrived.  With a
    *yardstick*, it is sampled every :data:`YARDSTICK_EVERY_S`, between
    turns; the next question is due after the sample.
    """
    clock = time.perf_counter
    records: list[Record] = []
    todo = turns if limit is None else turns[:limit]
    start = due = next_sample = clock()
    for index, turn in enumerate(todo):
        if yardstick is not None and due >= next_sample:
            yardstick.sample()
            due = clock()
            next_sample = due + YARDSTICK_EVERY_S
        nli = nlis[turn.db_id]
        nli.reset()
        if tracer is not None:
            tracer.begin(index)
        started = clock()
        answer = nli.ask(turn.question)
        done = clock()
        records.append(Record(turn, due, started, done, answer))
        due = done
        if (
            limit is None
            and done - start >= seconds
            and len(records) >= min_turns
        ):
            break
    if yardstick is not None:
        yardstick.sample()
    return records, clock() - start


def is_correct(record: Record, databases: dict) -> bool:
    """Execution match for SQL turns, exact VQL match for chart turns; an
    error answer is wrong."""
    answer = record.answer
    if not answer.ok:
        return False
    if record.turn.gold_vql is not None:
        return answer.vql is not None and vis_exact_match(
            answer.vql, record.turn.gold_vql
        )
    return answer.sql is not None and execution_match(
        answer.sql, record.turn.gold_sql, databases[record.turn.db_id]
    )


@contextlib.contextmanager
def _reference_engine():
    """Make ``render_chart`` run its query on the reference interpreter."""
    engine = charts.execute
    charts.execute = execute_reference
    try:
        yield
    finally:
        charts.execute = engine


def reference_points(vql: str, db) -> list:
    """The points of *vql*'s chart on *db*, its rows computed by
    ``execute_reference`` instead of the engine under test.  Call it only
    while nothing else renders charts."""
    with _reference_engine():
        return charts.render_chart(vql, db).points


def engine_disagreements(
    records: list[Record], databases: dict
) -> tuple[int, int]:
    """``(checked, differing)``: answered turns, and those whose rows (SQL)
    or chart points differ from the reference interpreter's for the same
    SQL or VQL."""
    checked = bad = 0
    for record in records:
        answer = record.answer
        if not answer.ok:
            continue
        db = databases[record.turn.db_id]
        if answer.chart is not None:
            same = answer.chart.points == reference_points(answer.vql, db)
        elif answer.sql is not None:
            reference = execute_reference(parse_sql(answer.sql), db)
            same = results_equal(answer.trace.result, reference)
        else:
            continue
        checked += 1
        bad += not same
    return checked, bad


def answer_key(answer) -> tuple:
    """Everything a user sees of one answer, for traced/untraced diffs."""
    chart = answer.chart
    return (
        answer.ok,
        answer.sql,
        answer.vql,
        tuple(answer.columns),
        tuple(answer.rows),
        None if chart is None else (chart.chart_type, tuple(chart.points)),
        answer.trace.error,
        tuple(answer.degraded),
    )
