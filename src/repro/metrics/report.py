"""Evaluation loop and accuracy aggregation.

``evaluate_parser`` runs a parser over a dataset split and scores it with
the standard metric battery (exact match, component/exact-set match,
execution match, and optionally test-suite match; or the Vis metrics for
Text-to-Vis datasets), stratified by hardness — the reporting shape used
across the surveyed literature and by this library's Table 2/4/5 and
Fig. 4 benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.data.database import Database
from repro.datasets.base import Dataset, Example
from repro.metrics.component_match import component_match
from repro.metrics.execution import execution_match
from repro.metrics.string_match import exact_string_match
from repro.metrics.test_suite import test_suite_match
from repro.metrics.vis_match import vis_component_match, vis_exact_match
from repro.sql.ast import Query
from repro.sql.unparser import to_sql
from repro.vis.vql import to_vql


@dataclass
class EvaluationReport:
    """Aggregated accuracy of one parser on one split."""

    parser_name: str
    dataset_name: str
    split: str
    total: int = 0
    metric_hits: dict[str, int] = field(default_factory=dict)
    hardness_totals: dict[str, int] = field(default_factory=dict)
    hardness_hits: dict[str, int] = field(default_factory=dict)
    parse_failures: int = 0
    seconds: float = 0.0
    #: per-example hit records, metric -> [bool per example]; every
    #: scored metric has an entry, even one that never hit
    example_hits: dict[str, list[bool]] = field(default_factory=dict)

    @property
    def metrics(self) -> list[str]:
        """Every metric this report scored, including zero-hit ones."""
        return sorted(self.metric_hits.keys() | self.example_hits.keys())

    def accuracy(self, metric: str = "exact_match") -> float:
        if self.total == 0:
            return 0.0
        return self.metric_hits.get(metric, 0) / self.total

    def confidence_interval(
        self,
        metric: str = "execution_match",
        level: float = 0.95,
        resamples: int = 1000,
        seed: int = 0,
    ) -> tuple[float, float]:
        """Bootstrap CI of a metric's accuracy over the evaluated examples."""
        import random

        hits = self.example_hits.get(metric, [])
        if not hits:
            return (0.0, 0.0)
        rng = random.Random(seed)
        n = len(hits)
        stats = sorted(
            sum(hits[rng.randrange(n)] for _ in range(n)) / n
            for _ in range(resamples)
        )
        lower = stats[int((1 - level) / 2 * resamples)]
        upper = stats[min(resamples - 1, int((1 + level) / 2 * resamples))]
        return (lower, upper)

    def hardness_accuracy(self) -> dict[str, float]:
        return {
            level: (
                self.hardness_hits.get(level, 0) / count if count else 0.0
            )
            for level, count in sorted(self.hardness_totals.items())
        }

    def as_dict(self) -> dict:
        out = {
            "parser": self.parser_name,
            "dataset": self.dataset_name,
            "split": self.split,
            "total": self.total,
            "parse_failures": self.parse_failures,
            "seconds": round(self.seconds, 3),
        }
        for metric in self.metrics:
            out[metric] = round(self.accuracy(metric), 4)
        return out


def evaluate_parser(
    parser,
    dataset: Dataset,
    split: str = "dev",
    with_test_suite: bool = False,
    limit: int | None = None,
    max_workers: int | None = None,
) -> EvaluationReport:
    """Evaluate *parser* on a dataset split with the standard metrics.

    For SQL datasets the metrics are ``exact_match`` (normalized string),
    ``component_match`` (exact-set), ``execution_match``, and — when
    ``with_test_suite`` — ``test_suite_match``.  For Vis datasets they are
    ``exact_match`` (whole VQL) plus per-component rates.  The *primary*
    metric driving the hardness breakdown is execution match for SQL and
    exact match for Vis, matching the headline numbers of Table 2.

    ``max_workers > 1`` scores the SQL metric battery on a process pool
    (:mod:`repro.eval.parallel`): parsing stays serial in the parent —
    parsers are stateful, cheap, and dialogue history is order-dependent
    — while the execution-heavy scoring fans out per example.  Reports
    are identical to the serial path (deterministic ordering); only
    worker-side obs counters are lost.  Vis datasets always run serially
    (their metrics are string-cheap).
    """
    from repro.eval.parallel import resolve_workers
    from repro.parsers.base import ParseRequest

    examples = dataset.split(split).examples
    if limit is not None:
        examples = examples[:limit]

    report = EvaluationReport(
        parser_name=getattr(parser, "name", type(parser).__name__),
        dataset_name=dataset.name,
        split=split,
    )
    start = time.perf_counter()

    # one shared resolution rule (explicit > REPRO_EVAL_WORKERS > serial);
    # resolved <= 1 is the serial fallback, exactly like parallel_map's
    workers = resolve_workers(max_workers, default=1)
    if dataset.task != "vis" and workers > 1:
        _evaluate_sql_parallel(
            parser, dataset, examples, report, with_test_suite, workers
        )
        report.seconds = time.perf_counter() - start
        return report

    history_cache: dict[str, list[tuple[str, Query]]] = {}

    for example in examples:
        db = dataset.database(example.db_id)
        history: list[tuple[str, Query]] = []
        if example.dialogue_id is not None:
            history = history_cache.get(example.dialogue_id, [])
        request = ParseRequest(
            question=example.question,
            schema=db.schema,
            db=db,
            knowledge=example.knowledge,
            history=list(history),
            language=example.language,
        )
        if dataset.task == "vis":
            vql = parser.parse_vis(request)
            predicted_vql = to_vql(vql) if vql is not None else ""
            if not predicted_vql:
                report.parse_failures += 1
            _score_vis(report, example, db, predicted_vql)
            _update_history(history_cache, example, history)
            continue

        result = parser.parse(request)
        predicted_sql = (
            to_sql(result.query) if result.query is not None else ""
        )
        if result.query is None:
            report.parse_failures += 1

        if example.dialogue_id is not None:
            # gold history, as the conversational literature evaluates
            from repro.sql.parser import parse_sql

            history_cache.setdefault(example.dialogue_id, [])
            history_cache[example.dialogue_id] = list(history) + [
                (example.question, parse_sql(example.sql))
            ]

        _score_sql(report, example, db, predicted_sql, with_test_suite)
    report.seconds = time.perf_counter() - start
    return report


#: example_hits append order must match the serial ``_score_sql`` records
_SQL_METRIC_ORDER = (
    "exact_match",
    "component_match",
    "execution_match",
    "test_suite_match",
)


def _sql_hits_job(job: tuple) -> dict:
    """Module-level worker: the full SQL metric battery for one example."""
    predicted_sql, gold_sql, db, with_test_suite = job
    hits = {
        "exact_match": exact_string_match(predicted_sql, gold_sql),
        "component_match": component_match(predicted_sql, gold_sql),
        "execution_match": execution_match(predicted_sql, gold_sql, db),
    }
    if with_test_suite:
        hits["test_suite_match"] = test_suite_match(
            predicted_sql, gold_sql, db
        )
    return hits


def _evaluate_sql_parallel(
    parser,
    dataset: Dataset,
    examples,
    report: EvaluationReport,
    with_test_suite: bool,
    max_workers: int,
) -> None:
    """Parse serially, score the SQL metrics on a process pool.

    Produces exactly the report the serial loop would: jobs are built in
    example order, :func:`repro.eval.parallel.parallel_map` preserves that
    order, and the merge below replays ``_score_sql``'s bookkeeping.
    """
    from repro.eval.parallel import parallel_map
    from repro.parsers.base import ParseRequest
    from repro.sql.parser import parse_sql

    history_cache: dict[str, list[tuple[str, Query]]] = {}
    parsed: list[tuple[Example, Database, str]] = []
    for example in examples:
        db = dataset.database(example.db_id)
        history: list[tuple[str, Query]] = []
        if example.dialogue_id is not None:
            history = history_cache.get(example.dialogue_id, [])
        request = ParseRequest(
            question=example.question,
            schema=db.schema,
            db=db,
            knowledge=example.knowledge,
            history=list(history),
            language=example.language,
        )
        result = parser.parse(request)
        predicted_sql = (
            to_sql(result.query) if result.query is not None else ""
        )
        if result.query is None:
            report.parse_failures += 1
        if example.dialogue_id is not None:
            history_cache[example.dialogue_id] = list(history) + [
                (example.question, parse_sql(example.sql))
            ]
        parsed.append((example, db, predicted_sql))

    jobs = [
        (i, (sql, example.sql, db, with_test_suite))
        for i, (example, db, sql) in enumerate(parsed)
        if sql
    ]
    verdicts = parallel_map(
        _sql_hits_job, [job for _, job in jobs], max_workers=max_workers
    )
    hits_by_index = {i: hits for (i, _), hits in zip(jobs, verdicts)}

    for i, (example, _db, predicted_sql) in enumerate(parsed):
        report.total += 1
        hits_map = hits_by_index.get(i)
        if hits_map is not None:
            execution_hit = hits_map["execution_match"]
            for metric in _SQL_METRIC_ORDER:
                if metric not in hits_map:
                    continue
                hit = hits_map[metric]
                if hit:
                    report.metric_hits[metric] = (
                        report.metric_hits.get(metric, 0) + 1
                    )
                report.example_hits.setdefault(metric, []).append(hit)
        else:
            execution_hit = False
            _record_misses(report, with_test_suite)
        report.hardness_totals[example.hardness] = (
            report.hardness_totals.get(example.hardness, 0) + 1
        )
        if execution_hit:
            report.hardness_hits[example.hardness] = (
                report.hardness_hits.get(example.hardness, 0) + 1
            )


def _record_misses(report: EvaluationReport, with_test_suite: bool) -> None:
    """An unparsed example misses every SQL metric the run scores."""
    scored = _SQL_METRIC_ORDER if with_test_suite else _SQL_METRIC_ORDER[:-1]
    for metric in scored:
        report.example_hits.setdefault(metric, []).append(False)


def _update_history(history_cache, example, history) -> None:
    """Record the gold program for conversational evaluation."""
    if example.dialogue_id is None:
        return
    from repro.sql.parser import parse_sql

    history_cache[example.dialogue_id] = list(history) + [
        (example.question, parse_sql(example.sql))
    ]


def _score_sql(
    report: EvaluationReport,
    example: Example,
    db: Database,
    predicted_sql: str,
    with_test_suite: bool,
) -> None:
    report.total += 1
    hits = report.metric_hits

    def record(metric: str, hit: bool) -> None:
        if hit:
            hits[metric] = hits.get(metric, 0) + 1
        report.example_hits.setdefault(metric, []).append(hit)

    if predicted_sql:
        record("exact_match", exact_string_match(predicted_sql, example.sql))
        record(
            "component_match", component_match(predicted_sql, example.sql)
        )
        execution_hit = execution_match(predicted_sql, example.sql, db)
        record("execution_match", execution_hit)
        if with_test_suite:
            record(
                "test_suite_match",
                test_suite_match(predicted_sql, example.sql, db),
            )
    else:
        execution_hit = False
        _record_misses(report, with_test_suite)
    report.hardness_totals[example.hardness] = (
        report.hardness_totals.get(example.hardness, 0) + 1
    )
    if execution_hit:
        report.hardness_hits[example.hardness] = (
            report.hardness_hits.get(example.hardness, 0) + 1
        )


def _score_vis(
    report: EvaluationReport,
    example: Example,
    db: Database,
    predicted_vql: str,
) -> None:
    report.total += 1
    hits = report.metric_hits
    gold_vql = example.vql or ""
    exact = vis_exact_match(predicted_vql, gold_vql) if predicted_vql else False
    components = (
        vis_component_match(predicted_vql, gold_vql, db)
        if predicted_vql
        else {"chart_type": False, "data": False, "axes": False}
    )
    scored = {"exact_match": exact}
    scored.update((f"vis_{key}", value) for key, value in components.items())
    for metric, hit in scored.items():
        if hit:
            hits[metric] = hits.get(metric, 0) + 1
        report.example_hits.setdefault(metric, []).append(hit)
    report.hardness_totals[example.hardness] = (
        report.hardness_totals.get(example.hardness, 0) + 1
    )
    if exact:
        report.hardness_hits[example.hardness] = (
            report.hardness_hits.get(example.hardness, 0) + 1
        )
