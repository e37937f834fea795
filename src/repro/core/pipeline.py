"""The Fig. 1 pipeline, with an inspectable trace.

The survey's workflow has five stages: (1) the user's natural-language
input, (2) preprocessing, (3) translation into a functional representation
(SQL or a visualization specification), (4) execution against the
database, and (5) presentation of data or visuals back to the user, who
may then give feedback.  ``Pipeline.run`` executes those stages and
records a :class:`PipelineTrace` so examples and tests can observe each
one — the observable counterpart of the figure.

Stages hand each other typed programs, never text to re-parse: the
translator's :class:`~repro.sql.ast.Query` (or
:class:`~repro.vis.vql.VQLQuery`) is what the lint gate checks, the
engine executes or the renderer charts, and — for an answered SQL turn —
what joins the caller's conversation history.  Text is produced once per
turn, for display (the translate stage record and
``PipelineTrace.functional_expression``).

Between translation and execution an optional :class:`LintGate` stage
scores every candidate query with the static-analysis engine
(:mod:`repro.sql.lint`) and prunes the ones carrying error-severity
diagnostics — the survey's execution-guided decoding idea applied *before*
execution, where rejecting a bad candidate costs microseconds instead of
a database round-trip.  The visualization branch has the analogous
:class:`~repro.vis.lint.VisLintGate` (re-exported here), which addition-
ally consults the static output-schema typer and the ``V``-rule catalog,
so a chart that could never render is rejected before its SQL even runs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.data.database import Database
from repro.data.schema import Schema
from repro.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    InjectedFault,
    ReproError,
    ResilienceError,
    SQLError,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.parsers.base import ParseRequest, Parser, ParseResult
from repro.parsers.vis.base import VisParser
from repro.resilience import ResiliencePolicy, Retry, breaker_for
from repro.resilience import deadline as _deadline
from repro.resilience.breaker import CLOSED as _BREAKER_CLOSED
from repro.resilience import faults as _faults
from repro.sql import rescache as _rescache
from repro.sql.ast import Query
from repro.sql.executor import Result, execute
from repro.sql.lint import LintReport, Severity, lint_query
from repro.sql.plan import compile_query
from repro.sql.unparser import to_sql
from repro.systems.base import wants_visualization
from repro.vis.charts import Chart, render_chart
from repro.vis.lint.gate import VisGateDecision, VisLintGate
from repro.vis.vql import VQLQuery, parse_vql, to_vql

_registry = _obs_metrics.get_registry()
_RUNS = _registry.counter("repro.pipeline.runs")
_ERRORS = _registry.counter("repro.pipeline.errors")
_TURN_HITS = _registry.counter("repro.pipeline.turn_cache.hits")
_TURN_MISSES = _registry.counter("repro.pipeline.turn_cache.misses")
_TURN_COALESCED = _registry.counter("repro.pipeline.turn_cache.coalesced")
_DEGRADED_TURNS = _registry.counter("repro.pipeline.degraded.turns")
_DEGRADES = _registry.counter("repro.resilience.degrades")

#: per-Pipeline bound on memoized end-to-end turns
_TURN_MEMO_MAX = 128


def _stage_seconds(name: str) -> "_obs_metrics.Histogram":
    """Fetch-or-create the latency histogram for one pipeline stage."""
    return _registry.histogram(f"repro.pipeline.stage.{name}.seconds")


@dataclass(frozen=True, slots=True)
class StageRecord:
    """One pipeline stage's outcome (immutable, so replays share it)."""

    stage: str
    output: str
    seconds: float


@dataclass
class PipelineTrace:
    """The observable record of one request's path through Fig. 1.

    ``stages`` is always recorded; ``span`` is additionally set to the
    ``repro.pipeline.run`` root span (with one child per stage) when
    :mod:`repro.obs.trace` tracing is enabled, so the same request shows
    up in span trees next to the SQL engine's per-operator spans.
    """

    question: str
    #: the preprocess intent: True for a chart request (so ``vql``, not
    #: ``sql``, holds the expression, even if the chart degraded)
    vis_intent: bool = False
    stages: list[StageRecord] = field(default_factory=list)
    functional_expression: str | None = None
    result: Result | None = None
    chart: Chart | None = None
    error: str | None = None
    span: object | None = None
    #: True when this trace was replayed from the pipeline's turn memo
    #: rather than re-running the stages (same question, same history,
    #: same database state — see :meth:`Pipeline.run`).
    cached: bool = False
    #: True when this turn waited on an identical turn already in flight
    #: and replays that turn's answer (singleflight, see
    #: :meth:`Pipeline.run`); a coalesced trace is also ``cached``.
    coalesced: bool = False
    #: Degradation-ladder rungs taken this turn (``stage:rung`` strings,
    #: e.g. ``translate:rule-fallback``); empty on a healthy turn.  Only
    #: populated when the pipeline runs with a :class:`ResiliencePolicy`.
    degraded: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.error is None and (
            self.result is not None or self.chart is not None
        )

    @property
    def sql(self) -> str | None:
        """The displayed SQL of a data-question turn, else None."""
        return None if self.vis_intent else self.functional_expression

    @property
    def vql(self) -> str | None:
        """The displayed VQL of a chart-request turn, else None."""
        return self.functional_expression if self.vis_intent else None

    def describe(self) -> str:
        lines = [f"question: {self.question}"]
        for record in self.stages:
            lines.append(
                f"  [{record.stage}] {record.output}"
                f" ({record.seconds * 1000:.1f} ms)"
            )
        if self.degraded:
            lines.append(f"  degraded: {', '.join(self.degraded)}")
        if self.error:
            lines.append(f"  error: {self.error}")
        return "\n".join(lines)


@dataclass
class GateDecision:
    """What the :class:`LintGate` did with one candidate list.

    ``chosen`` is the candidate the gate ranked best (None when every
    candidate was pruned — callers should fall back to the parser's own
    best, so the gate can only help); ``kept``/``pruned`` partition the
    deduplicated candidates, each paired with its lint report.
    """

    chosen: Query | None
    kept: list[tuple[Query, LintReport]]
    pruned: list[tuple[Query, LintReport]]

    @property
    def examined(self) -> int:
        return len(self.kept) + len(self.pruned)

    def describe(self) -> str:
        return (
            f"kept {len(self.kept)}/{self.examined} candidate(s), "
            f"pruned {len(self.pruned)}"
        )


class LintGate:
    """Score and prune candidate queries by static-diagnostic severity.

    The execution-guided decoders the survey describes verify candidates
    by *running* them; the gate applies the cheap static subset of that
    check first.  A candidate is pruned when its lint report carries a
    diagnostic at or above ``prune_at`` severity; survivors are ranked by
    a weighted penalty (errors ≫ warnings ≫ infos), ties broken by the
    parser's original ranking.
    """

    #: penalty weights per severity for candidate ranking
    WEIGHTS = {Severity.ERROR: 100.0, Severity.WARNING: 3.0, Severity.INFO: 1.0}

    def __init__(self, prune_at: Severity = Severity.ERROR) -> None:
        self.prune_at = prune_at

    def report(self, query: Query, schema: Schema) -> LintReport:
        return lint_query(query, schema)

    def score(self, report: LintReport) -> float:
        """Weighted badness of a report; 0.0 means lint-clean."""
        return sum(self.WEIGHTS[d.severity] for d in report.diagnostics)

    def decide(self, candidates: list[Query], schema: Schema) -> GateDecision:
        """Lint every distinct candidate and pick the cleanest survivor."""
        distinct: list[Query] = []
        for candidate in candidates:
            if candidate not in distinct:
                distinct.append(candidate)
        kept: list[tuple[Query, LintReport]] = []
        pruned: list[tuple[Query, LintReport]] = []
        best: Query | None = None
        best_score = float("inf")
        for candidate in distinct:
            if _deadline._ACTIVE:
                _deadline.checkpoint("lint gate")
            report = self.report(candidate, schema)
            if any(
                self.prune_at <= d.severity for d in report.diagnostics
            ):
                pruned.append((candidate, report))
                continue
            kept.append((candidate, report))
            score = self.score(report)
            if score < best_score:
                best, best_score = candidate, score
        return GateDecision(chosen=best, kept=kept, pruned=pruned)


class Pipeline:
    """Preprocess → translate → [lint] → execute → present, with tracing.

    Pass a :class:`~repro.resilience.ResiliencePolicy` to run the turn
    fault-tolerantly: stages get deadline budgets, flaky stages get
    retries and per-component circuit breakers, and a stage that still
    fails drops onto its degradation ladder (LLM parser → rule parser,
    vector engine → row engine, cached result on executor timeout, chart
    → data-only) instead of failing the turn — see DESIGN.md §Resilience.
    With no faults injected and budgets unexpired, a resilient run takes
    exactly the same code paths as a plain one, so outputs are identical
    (``tests/test_resilience.py`` runs that differential).
    """

    def __init__(
        self,
        sql_parser: Parser,
        vis_parser: VisParser,
        lint_gate: LintGate | None = None,
        vis_lint_gate: VisLintGate | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        self.sql_parser = sql_parser
        self.vis_parser = vis_parser
        self.lint_gate = lint_gate
        self.vis_lint_gate = vis_lint_gate
        self.resilience = resilience
        # end-to-end turn memo: (question, knowledge, history, db state) ->
        # (finished PipelineTrace, answered SQL Query or None); every stage
        # is deterministic given those four, and the db-state token
        # (per-table version stamps + object identity) retires entries on
        # any mutation.  Guarded by a lock: one pipeline serves many
        # concurrent sessions under repro.serve, and OrderedDict
        # reorder-during-resize is not atomic.  The same lock guards the
        # in-flight table: memo key -> a lock its leader holds until the
        # turn is done (a held lock is the cheapest one-shot latch, and
        # every cold turn makes one)
        self._turn_memo: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._inflight: dict[tuple, threading.Lock] = {}
        self._memo_lock = threading.Lock()
        # lazy rule-based fallback parsers for the translate ladder, and
        # one Retry per retried stage (its jitter RNG advances
        # deterministically across the pipeline's lifetime)
        self._sql_fallback: Parser | None = None
        self._vis_fallback: VisParser | None = None
        self._retries: dict[str, Retry] = {}
        # per-component (breaker, retry-or-None) pairs resolved once —
        # the guarded stage wrappers run on every turn and must not pay
        # registry and policy lookups each time — and the stage-budget
        # table flattened to one dict.get per stage
        self._guard_plans: dict[str, tuple] = {}
        self._stage_budgets: dict[str, float] = (
            dict(resilience.stage_deadlines) if resilience is not None else {}
        )

    def run(
        self,
        question: str,
        db: Database,
        knowledge: str | None = None,
        history: list | None = None,
    ) -> PipelineTrace:
        """Run one natural-language request through the Fig. 1 pipeline.

        Stages: *preprocess* (query/visualization intent), *translate*
        (the configured SQL or Vis parser), optional *lint* (the
        :class:`LintGate` candidate filter, when configured), *execute*
        (SQL engine or chart renderer), and *present*.  Never raises on a
        failed request: the returned :class:`PipelineTrace` records every
        stage that ran, its rendered output and wall time, plus ``error``
        when a stage failed.  *knowledge* is an optional external-
        knowledge string (BIRD-style); *history* is the list of prior
        ``(question, Query)`` turns for conversational follow-ups.  After
        an answered SQL turn the executed ``(question, Query)`` pair is
        appended to *history* in place — the caller's conversation grows
        by the AST the engine ran, with no re-parse of its text.

        Observability: every run increments ``repro.pipeline.runs`` (and
        ``repro.pipeline.errors`` on failure) and feeds the per-stage
        ``repro.pipeline.stage.<name>.seconds`` latency histograms; with
        tracing enabled the run also emits a ``repro.pipeline.run`` span
        tree, attached to the trace as ``trace.span``.

        Repeated turns memoize end-to-end: when tracing is off, an
        identical ``(question, knowledge, history)`` against an unmutated
        database replays the finished :class:`PipelineTrace` (marked
        ``cached=True``, ``repro.pipeline.turn_cache.hits``) and appends
        the same query to *history*, instead of re-running the stages —
        every stage is deterministic given those inputs, and the memo key
        carries the database's per-table version stamps so any mutation
        misses.

        Identical turns in flight at the same time run once
        (singleflight): the first miss for a key leads and runs the
        stages; a miss that finds a leader running waits for it, then
        replays its memoized trace with ``coalesced=True``
        (``repro.pipeline.turn_cache.coalesced``).  A leader that raises
        or degrades memoizes nothing, so each of its followers runs its
        own turn.  A follower waits no longer than the ambient deadline,
        then ends as an expired leader does (``DeadlineExceeded``, or a
        ``turn:aborted`` trace when resilient).  Whatever bypasses the
        memo — tracing, an active fault plan, unhashable history —
        bypasses coalescing too.
        """
        _RUNS.inc()
        chaos = self.resilience is not None and _faults.active()
        # under an active fault plan a turn's outcome is no longer a pure
        # function of (question, knowledge, history, db state), so the
        # end-to-end memo must neither serve nor store
        memo_key = (
            None
            if chaos
            else self._turn_memo_key(question, db, knowledge, history)
        )
        flight = waiting = None
        if memo_key is not None:
            with self._memo_lock:
                entry = self._turn_memo.get(memo_key)
                if entry is not None:
                    self._turn_memo.move_to_end(memo_key)
                else:
                    waiting = self._inflight.get(memo_key)
                    if waiting is None:
                        # lead: identical turns arriving now wait on us
                        flight = self._inflight[memo_key] = threading.Lock()
                        flight.acquire()
            if entry is not None:
                _TURN_HITS.inc()
                return self._replay_entry(entry, question, history)
            if waiting is not None:
                # follow: wait outside the memo lock, no longer than this
                # turn's own deadline allows, then probe the memo once
                try:
                    _await_leader(waiting)
                except DeadlineExceeded as exc:
                    if self.resilience is None:
                        raise
                    _ERRORS.inc()
                    _DEGRADED_TURNS.inc()
                    return self._aborted_trace(question, exc)
                with self._memo_lock:
                    entry = self._turn_memo.get(memo_key)
                if entry is not None:
                    _TURN_COALESCED.inc()
                    trace = self._replay_entry(entry, question, history)
                    trace.coalesced = True
                    return trace
            _TURN_MISSES.inc()
        try:
            return self._run_and_memoize(
                question, db, knowledge, history, memo_key
            )
        finally:
            if flight is not None:
                with self._memo_lock:
                    del self._inflight[memo_key]
                flight.release()

    def _aborted_trace(self, question: str, exc: Exception) -> PipelineTrace:
        """The errored ``turn:aborted`` trace a resilient turn returns
        when something escaped its stage ladders."""
        trace = PipelineTrace(question=question)
        trace.error = f"turn aborted: {exc}"
        self._mark_degraded(trace, "turn:aborted")
        return trace

    def _replay_entry(
        self, entry: tuple, question: str, history: list | None
    ) -> PipelineTrace:
        """Replay a memo entry as a hit does: a private trace copy, with
        the memoized query appended to *history*."""
        cached, query = entry
        if cached.error is not None:
            _ERRORS.inc()
        if query is not None and history is not None:
            history.append((question, query))
        return self._replay_trace(cached)

    def _run_and_memoize(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
        memo_key: tuple | None,
    ) -> PipelineTrace:
        """Run the stages for one turn and memoize a healthy outcome."""
        if self.resilience is not None:
            trace, query = self._run_turn_resilient(
                question, db, knowledge, history
            )
        else:
            trace, query = self._run_turn(question, db, knowledge, history)
        if trace.error is not None:
            _ERRORS.inc()
        if trace.degraded:
            _DEGRADED_TURNS.inc()
        if memo_key is not None and not trace.degraded:
            # stash a private copy: the caller owns the returned trace and
            # may mutate its result rows without poisoning the memo.
            # Degraded turns are never memoized — a fallback answer must
            # not outlive the incident that caused it.  The query rides
            # beside the trace, never on it: answers stay AST-free
            private = self._replay_trace(trace)
            with self._memo_lock:
                self._turn_memo[memo_key] = (private, query)
                while len(self._turn_memo) > _TURN_MEMO_MAX:
                    self._turn_memo.popitem(last=False)
        if query is not None and history is not None:
            history.append((question, query))
        return trace

    def _run_turn(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> tuple[PipelineTrace, Query | None]:
        """One turn; returns the trace and the answered SQL query, if any."""
        if _obs_trace._ENABLED:
            with _obs_trace.span(
                "repro.pipeline.run", question=question
            ) as span:
                trace, query = self._run_stages(
                    question, db, knowledge, history
                )
                span.set_attr("error", trace.error)
                trace.span = span
        else:
            trace, query = self._run_stages(question, db, knowledge, history)
        return trace, query

    def _run_turn_resilient(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> tuple[PipelineTrace, Query | None]:
        """One turn under the policy's deadline, guaranteed not to raise.

        The turn budget becomes the ambient deadline for every stage;
        stage-level faults are handled by the per-stage ladders, and
        anything that still escapes (an expired budget between stages, a
        fault in un-laddered glue) is converted into an errored-but-
        returned trace here — a resilient pipeline's contract is that
        ``run`` never raises.
        """
        policy = self.resilience
        bounded = policy.turn_deadline is not None
        if bounded:
            token = _deadline.push_budget(policy.turn_deadline, policy.clock)
        try:
            trace, query = self._run_turn(question, db, knowledge, history)
        except Exception as exc:  # belt and braces: never raise
            trace, query = self._aborted_trace(question, exc), None
        finally:
            if bounded:
                _deadline.pop_budget(token)
        if trace.degraded and trace.span is not None:
            trace.span.set_attr("degraded", ",".join(trace.degraded))
        return trace, query

    def _run_stages(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> tuple[PipelineTrace, Query | None]:
        trace = PipelineTrace(question=question)

        is_vis = trace.vis_intent = self._stage(
            trace,
            "preprocess",
            lambda: wants_visualization(question),
            render=lambda v: "intent: visualization" if v else "intent: query",
        )

        request = ParseRequest(
            question=question,
            schema=db.schema,
            db=db,
            knowledge=knowledge,
            history=list(history or []),
        )

        if is_vis:
            vql = self._stage(
                trace,
                "translate",
                lambda: self._translate_vis(request, trace),
                render=lambda v: (
                    to_vql(v) if v is not None else "(no translation)"
                ),
            )
            if vql is None:
                trace.error = "translation failed"
                return trace, None
            text = trace.stages[-1].output
            if self.vis_lint_gate is not None:
                decision = self._stage(
                    trace,
                    "lint",
                    lambda: self.vis_lint_gate.decide([vql], db.schema, db=db),
                    render=lambda d: d.describe(),
                )
                if decision.chosen is not None and decision.chosen is not vql:
                    vql = decision.chosen
                    text = to_vql(vql)
            trace.functional_expression = text
            chart = self._stage(
                trace,
                "execute",
                lambda: self._render_chart(vql, db, trace),
                render=lambda c: (
                    f"chart with {len(c.points)} points"
                    if c is not None
                    else (
                        "degraded to data-only result"
                        if trace.result is not None
                        else "(render failed)"
                    )
                ),
            )
            if chart is None:
                if trace.result is not None:
                    # render ladder degraded to data-only: present the
                    # underlying rows like a query turn
                    data = trace.result
                    self._stage(
                        trace,
                        "present",
                        lambda: ", ".join(data.columns),
                        render=lambda c: f"columns: {c}",
                    )
                    return trace, None
                trace.error = "chart rendering failed"
                return trace, None
            trace.chart = chart
            self._stage(
                trace,
                "present",
                lambda: chart.to_ascii(width=24).splitlines()[0],
                render=str,
            )
            return trace, None

        parse_result = self._stage(
            trace,
            "translate",
            lambda: self._translate_sql(request, trace),
            render=lambda r: (
                to_sql(r.query) if r.query is not None else "(no translation)"
            ),
        )
        if parse_result.query is None:
            trace.error = "translation failed"
            return trace, None
        query = parse_result.query
        text = trace.stages[-1].output
        if self.lint_gate is not None:
            candidates = [query] + [
                c for c in parse_result.candidates if c != query
            ]
            decision = self._stage(
                trace,
                "lint",
                lambda: self.lint_gate.decide(candidates, db.schema),
                render=lambda d: d.describe(),
            )
            if decision.chosen is not None and decision.chosen is not query:
                query = decision.chosen
                text = to_sql(query)
        trace.functional_expression = text
        result = self._stage(
            trace,
            "execute",
            lambda: self._execute(query, db, trace),
            render=lambda r: (
                f"{len(r.rows)} row(s)" if r is not None else "(failed)"
            ),
        )
        if result is None:
            trace.error = "execution failed"
            return trace, None
        trace.result = result
        self._stage(
            trace,
            "present",
            lambda: ", ".join(result.columns),
            render=lambda c: f"columns: {c}",
        )
        return trace, query

    # ------------------------------------------------------------------
    def _turn_memo_key(
        self,
        question: str,
        db: Database,
        knowledge: str | None,
        history: list | None,
    ) -> tuple | None:
        """The memo key for one turn, or None when memoization must skip.

        Skips when tracing is on (span trees must reflect real stage
        work) and when the history contains unhashable entries.
        """
        if _obs_trace._ENABLED:
            return None
        try:
            return (
                question,
                knowledge,
                tuple(history or ()),
                _rescache.database_state_token(db),
            )
        except TypeError:
            return None

    @staticmethod
    def _replay_trace(cached: PipelineTrace) -> PipelineTrace:
        """A fresh trace replaying *cached* (callers may mutate theirs).

        Every mutable field is copied — the stage list, result, chart —
        so neither the memoized trace nor any prior replay aliases the
        one handed out here; the frozen stage records themselves are
        shared.
        """
        return PipelineTrace(
            question=cached.question,
            vis_intent=cached.vis_intent,
            stages=list(cached.stages),
            functional_expression=cached.functional_expression,
            result=(
                _rescache.copy_result(cached.result)
                if cached.result is not None
                else None
            ),
            chart=cached.chart.copy() if cached.chart is not None else None,
            error=cached.error,
            span=None,
            cached=True,
            degraded=list(cached.degraded),
        )

    def _stage(self, trace: PipelineTrace, name: str, fn, render):
        budget = self._stage_budgets.get(name)
        output = None
        start = time.perf_counter()
        if budget is not None:
            token = _deadline.push_budget(budget, self.resilience.clock)
        try:
            if _obs_trace._ENABLED:
                with _obs_trace.span(f"repro.pipeline.stage.{name}") as span:
                    value = fn()
                    output = render(value)
                    span.set_attr("output", output)
            else:
                value = fn()
        finally:
            if budget is not None:
                _deadline.pop_budget(token)
        seconds = time.perf_counter() - start
        _stage_seconds(name).observe(seconds)
        if output is None:
            output = render(value)
        trace.stages.append(
            StageRecord(stage=name, output=output, seconds=seconds)
        )
        return value

    # ------------------------------------------------------------------
    # resilient stage wrappers and degradation ladders
    # ------------------------------------------------------------------
    def _mark_degraded(self, trace: PipelineTrace, rung: str) -> None:
        trace.degraded.append(rung)
        _DEGRADES.inc()
        _registry.counter(f"repro.resilience.degrade.{rung}").inc()

    def _retry_for(self, stage: str) -> Retry:
        retry = self._retries.get(stage)
        if retry is None:
            policy = self.resilience
            retry = self._retries[stage] = Retry(
                policy.retry,
                name=stage,
                clock=policy.clock,
                sleep=policy.sleep,
            )
        return retry

    def _guarded(self, component: str, stage: str, fn, organic: tuple = ()):
        """Run one primary stage attempt under its breaker (and retries).

        Raises :class:`CircuitOpenError` without calling *fn* when the
        component's breaker is open; otherwise runs *fn* (through the
        stage's :class:`Retry` when the policy retries this stage) and
        feeds the outcome back to the breaker.  Callers catch what this
        raises and take the stage's degradation ladder.

        *organic* lists exception types that are normal domain outcomes
        (an invalid query raising :class:`SQLError`, say) rather than
        component failures — they propagate without counting against the
        breaker, so a streak of bad *inputs* can never trip the circuit
        and degrade good ones.  :class:`ResilienceError`\\ s always count,
        even when an organic base class would match them.
        """
        plan = self._guard_plans.get(component)
        if plan is None:
            policy = self.resilience
            plan = self._guard_plans[component] = (
                breaker_for(
                    component,
                    failure_threshold=policy.breaker_failure_threshold,
                    recovery_timeout=policy.breaker_recovery_timeout,
                    success_threshold=policy.breaker_success_threshold,
                    clock=policy.clock,
                ),
                self._retry_for(stage)
                if stage in policy.retry_stages
                else None,
            )
        breaker, retry = plan
        # inline the closed-state fast paths of allow()/record_success():
        # this wrapper is on every serving turn and the breaker is almost
        # always closed and quiet, so skip the method calls entirely then
        if breaker._state is not _BREAKER_CLOSED and not breaker.allow():
            raise CircuitOpenError(component)
        try:
            if retry is not None:
                result = retry.call(fn)
            else:
                result = fn()
        except Exception as exc:
            if isinstance(exc, ResilienceError) or not isinstance(
                exc, organic
            ):
                breaker.record_failure()
            raise
        if (
            breaker._state is not _BREAKER_CLOSED
            or breaker._consecutive_failures
        ):
            breaker.record_success()
        return result

    def _translate_sql(
        self, request: ParseRequest, trace: PipelineTrace
    ) -> ParseResult:
        if self.resilience is None:
            return self.sql_parser.parse(request)

        def attempt():
            _faults.fire("translate")
            return self.sql_parser.parse(request)

        try:
            return self._guarded("parser.sql", "translate", attempt)
        except Exception:
            # ladder: LLM/neural parser -> keyword rule parser.  The
            # fallback is deterministic and model-free; if even it fails,
            # the stage reports "no translation" like any parser miss.
            self._mark_degraded(trace, "translate:rule-fallback")
            if self._sql_fallback is None:
                from repro.parsers.rule import KeywordRuleParser

                self._sql_fallback = KeywordRuleParser()
            try:
                return self._sql_fallback.parse(request)
            except Exception:
                return ParseResult(query=None, notes="fallback parser failed")

    def _translate_vis(
        self, request: ParseRequest, trace: PipelineTrace
    ) -> VQLQuery | None:
        if self.resilience is None:
            return self.vis_parser.parse_vis(request)

        def attempt():
            _faults.fire("translate")
            out = self.vis_parser.parse_vis(request)
            if out is not None and _faults.active():
                out = _corrupt_vql(out)
            return out

        try:
            return self._guarded("parser.vis", "translate", attempt)
        except Exception:
            self._mark_degraded(trace, "translate:rule-fallback")
            if self._vis_fallback is None:
                from repro.parsers.vis.rule import DataToneVisParser

                self._vis_fallback = DataToneVisParser()
            try:
                return self._vis_fallback.parse_vis(request)
            except Exception:
                return None

    def _execute(
        self, query, db: Database, trace: PipelineTrace
    ) -> Result | None:
        if self.resilience is None:
            try:
                return execute(query, db)
            except SQLError:
                return None

        def attempt():
            _faults.fire("engine.vector")
            _faults.fire("execute")
            return execute(query, db)

        try:
            return self._guarded(
                "executor", "execute", attempt, organic=(SQLError,)
            )
        except SQLError:
            # organic query failure: same outcome as the plain pipeline
            return None
        except Exception as exc:
            return self._execute_ladder(query, db, trace, exc)

    def _execute_ladder(
        self, query, db: Database, trace: PipelineTrace, exc: Exception
    ) -> Result | None:
        """The execute degradation ladder, rung by rung.

        Rung 1 (vector-engine faults only): re-run on a row-engine plan
        compiled for this call alone (no shared state changes) — both
        engines are differentially tested identical, so this costs
        latency, not correctness.  Rung 2: serve a result-cache ``peek``
        — sound because the probe is stamped with current version tokens.
        Exhausted: report execution failure (the stage records it; the
        turn still completes).
        """
        if isinstance(exc, InjectedFault) and exc.site == "engine.vector":
            self._mark_degraded(trace, "execute:vector-off")
            try:
                return compile_query(
                    query, db.schema, db, vectorize=False
                ).run(db)
            except SQLError:
                return None
            except ResilienceError:
                pass  # keep descending
        cached = _rescache.peek(query, db)
        if cached is not None:
            self._mark_degraded(trace, "execute:cached-result")
            return cached
        self._mark_degraded(trace, "execute:failed")
        return None

    def _render_chart(
        self, vql: VQLQuery, db: Database, trace: PipelineTrace
    ) -> Chart | None:
        if self.resilience is None:
            try:
                return render_chart(vql, db)
            except ReproError:
                return None

        def attempt():
            _faults.fire("render")
            return render_chart(vql, db)

        try:
            return self._guarded(
                "renderer", "render", attempt, organic=(ReproError,)
            )
        except ResilienceError:
            # ladder: chart -> data-only answer.  Execute the VQL's
            # underlying SQL and surface the rows without the chart; the
            # caller presents them like a query turn.
            try:
                result = execute(vql.query, db)
            except ReproError:
                self._mark_degraded(trace, "render:failed")
                return None
            self._mark_degraded(trace, "render:data-only")
            trace.result = result
            return None
        except ReproError:
            # organic render failure: same outcome as the plain pipeline
            return None


def _await_leader(flight: threading.Lock) -> None:
    """Wait until a leader releases *flight*, no longer than the ambient
    deadline allows (then raise :class:`DeadlineExceeded`)."""
    deadline = _deadline.current_deadline()
    remaining = deadline.remaining() if deadline is not None else None
    if not flight.acquire(
        timeout=-1 if remaining is None else max(0.0, remaining)
    ):
        raise DeadlineExceeded("deadline exceeded waiting on an identical turn")
    flight.release()


def _corrupt_vql(vql: VQLQuery) -> VQLQuery | None:
    """Apply any ``translate:corrupt`` fault to a translated program.

    Corruption mangles text, so the program goes through its text form:
    a mangled program no longer parses and the turn sees no translation.
    Runs only while a fault plan is installed.
    """
    text = to_vql(vql)
    mangled = _faults.corrupt_text("translate", text)
    if mangled == text:
        return vql
    try:
        return parse_vql(mangled)
    except ReproError:
        return None
