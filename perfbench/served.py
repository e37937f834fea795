"""``served_mix``: open-loop conversational traffic through ``repro.serve``.

One generator thread submits on a fixed schedule (open loop) to a
:class:`repro.serve.Server` running the default resilient
``PipelineSystem`` with one worker per CPU.  The traffic:

- 32 lanes, each replaying conversations one after another, every
  conversation under a fresh session id and in turn order: SParC-like
  SQL dialogues (``build_sparc_like``) and Dial-NVBench-like chart
  dialogues (``build_dial_vis_like``) closed by a refresh that asks the
  first chart again, about one chart turn in five;
- about 60% of conversations replay one already played on the same
  database, so the pipeline memo and the result cache get hits;
- every :data:`BURST_EVERY` slots, :data:`BURST_SIZE` extra sessions
  ask the first turn of one new conversation at the same due time, so
  the coalescer sees identical turns in flight;
- every :data:`WRITE_EVERY` requests the generator swaps the rows of a
  table the traffic reads (``Table.replace_rows``), so caches must
  retire entries and rebuild statistics and indexes.

Requests are timed from their due time to ticket resolution.  The rate
ladder runs :data:`LADDER` in order on one server, draining between
rungs; the first rate is the base rate and runs as a warm-up rung plus
one rung per :data:`REQUESTS_PER_RUNG` requests for about ``--seconds``.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from dataclasses import dataclass

from repro.datasets.multiturn import build_dial_vis_like, build_sparc_like
from repro.metrics.execution import results_equal
from repro.metrics.vis_match import vis_exact_match
from repro.serve import ServeConfig, Server
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches
from repro.vis.vql import parse_vql

from common import VersionLog, is_fresh, min_samples_for
from direct import YARDSTICK_EVERY_S, reference_points

#: offered rates (requests per second); the first is the base rate.  On
#: the 2-CPU host it was built on, the stack's capacity on this traffic
#: is 1,000-1,250 req/s when the host is quiet, but a 600 req/s rung
#: missed the limit in one run of fifteen and a 900 req/s rung in one of
#: five, so the ladder stops at 300
LADDER = (150.0, 300.0)
#: requests per rung: a p99 needs ten samples beyond it
REQUESTS_PER_RUNG = min_samples_for(99)
#: p99 latency limit for a rung to count towards served_max_rps
LATENCY_LIMIT_S = 0.050
#: a rung whose generator submitted its p99 request later than this
#: behind schedule is marked invalid in the output (a fixed limit, so
#: that it does not move with the program)
LATE_LIMIT_S = 0.010
#: the least time before a request is due in which the open loop
#: samples the yardstick, so that sampling does not make it late
SAMPLE_SLACK_S = 0.002
LANES = 32
REPEAT_SHARE = 0.6
#: share of conversations that are chart dialogues; with the refresh
#: both kinds average three turns, so this is the share of chart turns
CHART_DIALOGUE_SHARE = 0.2
BURST_EVERY = 100
BURST_SIZE = 4
WRITE_EVERY = 200
SPARC_DIALOGUES = 600
VIS_DIALOGUES = 240


@dataclass(frozen=True)
class Planned:
    """One scheduled event: a request, or a write when ``question`` is
    None."""

    slot: int
    session_id: str
    db_id: str
    question: str | None
    gold_sql: str | None
    gold_vql: str | None


def build_inputs(seed: int) -> tuple[dict, list]:
    """The generated databases and the conversation pool."""
    sparc = build_sparc_like(num_dialogues=SPARC_DIALOGUES, seed=seed)
    vis = build_dial_vis_like(num_dialogues=VIS_DIALOGUES, seed=seed)
    databases = dict(sparc.databases)
    databases.update(vis.databases)
    return databases, [sparc.dialogues, vis.dialogues]


def _in_share(share: float, index: int) -> bool:
    """Whether item *index* of a sequence is one of an exact *share* of
    it: true for ``floor(share * n)`` of the first n items, spread evenly."""
    return math.floor((index + 1) * share) > math.floor(index * share)


def build_schedule(seed: int, dialogues: list, requests: int) -> list[Planned]:
    """The seeded request script for *requests* requests (bursts
    included), with a write event every :data:`WRITE_EVERY` requests."""
    rng = random.Random(seed)
    sql_pool, vis_pool = (list(pool) for pool in dialogues)
    rng.shuffle(sql_pool)
    rng.shuffle(vis_pool)
    played: list = []
    lanes: list[list] = [[] for _ in range(LANES)]
    counters = [0] * LANES
    picks = [0, 0, 0]  # conversations, fresh dialogues, fresh charts

    def pick(fresh: bool = False):
        # the shares are exact, not drawn, so seeds differ in which
        # dialogues they replay but not in the mix of the traffic
        repeat = _in_share(REPEAT_SHARE, picks[0])
        picks[0] += 1
        if repeat and not fresh and played:
            return rng.choice(played)
        if _in_share(CHART_DIALOGUE_SHARE, picks[1]):
            dialogue = vis_pool[picks[2] % len(vis_pool)]
            picks[2] += 1
        else:
            dialogue = sql_pool[(picks[1] - picks[2]) % len(sql_pool)]
        picks[1] += 1
        played.append(dialogue)
        return dialogue

    def lane_next(lane: int):
        if not lanes[lane]:
            dialogue = pick()
            counters[lane] += 1
            session = f"L{lane:02d}c{counters[lane]:04d}"
            turns = list(dialogue.turns)
            if turns[0].vql is not None:
                # a dashboard refresh: the chart asked again, unchanged
                turns.append(turns[0])
            lanes[lane] = [(session, turn) for turn in turns]
        return lanes[lane].pop(0)

    script: list[Planned] = []
    slot = 0
    bursts = 0
    while len(script) < requests:
        if slot and slot % BURST_EVERY == 0:
            bursts += 1
            # a never-played conversation: the burst's identical first
            # turns all miss the memos and meet in the coalescer
            dialogue = pick(fresh=True)
            first = dialogue.turns[0]
            for k in range(BURST_SIZE):
                script.append(
                    Planned(slot, f"B{bursts:04d}-{k}", first.db_id,
                            first.question, first.sql, first.vql)
                )
        session, turn = lane_next(slot % LANES)
        script.append(
            Planned(slot, session, turn.db_id, turn.question, turn.sql,
                    turn.vql)
        )
        slot += 1
    script = script[:requests]
    with_writes: list[Planned] = []
    for index, planned in enumerate(script):
        if index and index % WRITE_EVERY == 0:
            with_writes.append(
                Planned(planned.slot, "", planned.db_id, None, None, None)
            )
        with_writes.append(planned)
    return with_writes


def base_rungs(seconds: float) -> int:
    """How many base-rate rungs a run of *seconds* measures."""
    return max(1, round(LADDER[0] * seconds / REQUESTS_PER_RUNG))


def rung_rates(seconds: float) -> list[float]:
    """The offered rate of each rung of a run of *seconds*: a warm-up
    rung and the measured rungs at the base rate, then each higher rate
    of :data:`LADDER` once."""
    count = 1 + base_rungs(seconds)
    return [LADDER[0]] * count + list(LADDER[1:])


def split_rungs(script: list[Planned], sizes: list[int]) -> list[list[Planned]]:
    """Cut *script* into consecutive parts of *sizes* requests each (a
    write stays with the request it precedes)."""
    parts: list[list[Planned]] = [[] for _ in sizes]
    index = requests = 0
    for planned in script:
        if requests == sizes[index]:
            index += 1
            requests = 0
            if index == len(sizes):
                break
        parts[index].append(planned)
        requests += planned.question is not None
    return parts


def perturbed_rows(db, table, rng: random.Random) -> list[tuple]:
    """A new version of *table*: numeric cells outside keys nudged."""
    keys = {table.schema.primary_key}
    for fk in db.schema.foreign_keys:
        if fk.table.lower() == table.name.lower():
            keys.add(fk.column)
        if fk.ref_table.lower() == table.name.lower():
            keys.add(fk.ref_column)
    rows = []
    for row in table.rows:
        out = []
        for column, value in zip(table.schema.columns, row):
            if column.name in keys or isinstance(value, bool):
                out.append(value)
            elif isinstance(value, int):
                out.append(value + rng.randint(-3, 3))
            elif isinstance(value, float):
                out.append(round(value * rng.uniform(0.9, 1.1), 2))
            else:
                out.append(value)
        rows.append(tuple(out))
    return rows


@dataclass
class Sent:
    planned: Planned
    due: float
    submitted: float
    ticket: object
    done: float = 0.0
    response: object = None


class Run:
    """One server plus the databases and their version logs."""

    def __init__(self, seed: int, databases: dict, dialogues: list) -> None:
        self.databases = databases
        self.dialogues = dialogues
        self.logs = {db_id: VersionLog(db.copy())
                     for db_id, db in databases.items()}
        self.server = None
        self._rng = random.Random(seed + 1)
        self.writes = 0

    def start(self) -> None:
        workers = os.cpu_count() or 1
        self.server = Server(self.databases, config=ServeConfig(workers=workers))

    def write(self, db_id: str) -> None:
        db = self.databases[db_id]
        names = sorted(db.tables)
        table = db.tables[names[self.writes % len(names)]]
        self.writes += 1
        rows = perturbed_rows(db, table, self._rng)
        started = time.perf_counter()
        table.replace_rows(rows)
        finished = time.perf_counter()
        self.logs[db_id].install(db.copy(), started, finished)

    def rung(
        self,
        script: list[Planned],
        rate: float,
        yardstick=None,
    ) -> tuple[list[Sent], list[float]]:
        """Submit *script* in an open loop at *rate*, each request due at
        its slot's time, and wait for every answer.  A *yardstick* is
        sampled about every :data:`YARDSTICK_EVERY_S` while no request is
        in flight, only with :data:`SAMPLE_SLACK_S` to spare before the
        next request is due.

        Returns the sent requests and the generator's lateness per
        request (seconds behind schedule at submit).
        """
        clock = time.perf_counter
        sent: list[Sent] = []
        late: list[float] = []
        resolved = [0]
        submitted = [0]
        all_done = threading.Event()
        idle = threading.Event()
        lock = threading.Lock()
        next_sample = clock()
        requests = sum(p.question is not None for p in script)
        start = clock() + 0.01
        slot0 = script[0].slot if script else 0

        def on_done(record: Sent):
            def callback(response):
                record.done = clock()
                record.response = response
                with lock:
                    resolved[0] += 1
                    if resolved[0] == requests:
                        all_done.set()
                    if resolved[0] == submitted[0]:
                        idle.set()
            return callback

        server = self.server
        for planned in script:
            due = start + (planned.slot - slot0) / rate
            if yardstick is not None and clock() >= next_sample:
                spare = due - clock() - SAMPLE_SLACK_S
                if (spare > 0 and idle.wait(spare)
                        and due - clock() > SAMPLE_SLACK_S):
                    yardstick.sample()
                    next_sample = clock() + YARDSTICK_EVERY_S
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            if planned.question is None:
                self.write(planned.db_id)
                continue
            now = clock()
            late.append(max(0.0, now - due))
            with lock:
                submitted[0] += 1
                idle.clear()
            ticket = server.submit(
                planned.question,
                session_id=planned.session_id,
                db_id=planned.db_id,
            )
            record = Sent(planned, due, now, ticket)
            sent.append(record)
            ticket.add_done_callback(on_done(record))
        if requests and not all_done.wait(120.0):
            raise RuntimeError("served requests did not finish in 120 s")
        return sent, late

    def close(self) -> None:
        """Shut the server down (draining what it admitted)."""
        if self.server is not None:
            self.server.shutdown()


def setup(seed: int, data_seed: int) -> tuple[float, "Run"]:
    """Generate the databases from *data_seed* (found by
    ``direct.with_redraws``) and start the server, timed."""
    start = time.perf_counter()
    databases, dialogues = build_inputs(data_seed)
    run = Run(seed, databases, dialogues)
    run.start()
    elapsed = time.perf_counter() - start
    clear_plan_caches()
    return elapsed, run


def answer_key(response) -> tuple:
    """Everything a client sees of one answer, for traced/untraced diffs."""
    chart = response.chart
    return (
        response.status,
        response.kind,
        response.sql,
        response.vql,
        tuple(response.columns),
        tuple(response.rows),
        None if chart is None else (chart.chart_type, tuple(chart.points)),
        response.degraded,
    )


def _same_answer(response, snapshot) -> bool:
    """Whether *response* is what the reference interpreter gives on
    *snapshot*: the same rows, or for a chart the same points."""
    if response.chart is not None:
        return response.chart.points == reference_points(response.vql,
                                                         snapshot)
    if response.sql is not None:
        query = parse_sql(response.sql)
    else:
        query = parse_vql(response.vql).query
    return results_equal(response.result, execute_reference(query, snapshot))


def stale_answers(run: Run, sent: list[Sent]) -> int:
    """Answered requests whose rows match no database version current
    between their submission and their resolution."""
    stale = 0
    for record in sent:
        response = record.response
        if not response.ok:
            continue
        log = run.logs[record.planned.db_id]
        if not is_fresh(response, log, record.submitted, record.done,
                        _same_answer):
            stale += 1
    return stale


def correct(run: Run, record: Sent) -> bool:
    """Execution match (SQL) or exact VQL match (chart) against gold; the
    gold runs on the database version the answer was computed on."""
    response = record.response
    planned = record.planned
    if not response.ok:
        return False
    if planned.gold_vql is not None:
        return response.vql is not None and vis_exact_match(
            response.vql, planned.gold_vql
        )
    if response.sql is None:
        return False
    predicted = parse_sql(response.sql)
    gold = parse_sql(planned.gold_sql)
    log = run.logs[planned.db_id]
    return any(
        results_equal(
            execute_reference(predicted, snapshot),
            execute_reference(gold, snapshot),
        )
        for snapshot in log.candidates(record.submitted, record.done)
    )
