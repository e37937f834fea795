"""The typed stage contract: stages pass ASTs, never text to re-parse.

The translator's :class:`~repro.sql.ast.Query` / :class:`VQLQuery` is what
the lint gate checks, the engine runs, the renderer charts and the
conversation history keeps.  That is only equivalent to the old
text-passing pipeline because every emitted program round-trips through
its text unchanged, so the round trip is asserted here over seeded
corpora, together with the end-to-end consequence: re-executing an
answer's displayed SQL (or re-rendering its VQL) reproduces the answer.
"""

from __future__ import annotations

import pytest

from repro import NaturalLanguageInterface
from repro.core.interface import build_pipeline
from repro.core.pipeline import Pipeline, VisLintGate
from repro.datasets import build_dataset
from repro.parsers.base import ParseRequest
from repro.parsers.semantic import GrammarSemanticParser
from repro.parsers.vis.base import VisParser
from repro.parsers.vis.llm import Chat2VisParser
from repro.parsers.vis.rule import DataToneVisParser
from repro.resilience import ResiliencePolicy, install_faults
from repro.sql import parser as sql_parser_mod
from repro.sql.ast import Node
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, compile_query
from repro.sql.unparser import to_sql
from repro.systems.architectures import ParsingBasedSystem
from repro.vis.charts import render_chart
from repro.vis.vql import VQLQuery, parse_vql, to_vql

CORPORA = ("spider_like", "sparc_like", "nvbench_like")


def _nli_sql_parser() -> GrammarSemanticParser:
    """The SQL parser exactly as ``NaturalLanguageInterface`` builds it."""
    return build_pipeline().sql_parser


def _requests(dataset):
    """One request per example, dialogue turns carrying gold history."""
    histories: dict[str, list] = {}
    for example in dataset.examples:
        db = dataset.database(example.db_id)
        history = histories.get(example.dialogue_id, [])
        yield db, ParseRequest(
            question=example.question,
            schema=db.schema,
            db=db,
            knowledge=example.knowledge,
            history=list(history),
        )
        if example.dialogue_id is not None:
            histories[example.dialogue_id] = history + [
                (example.question, parse_sql(example.sql))
            ]


@pytest.mark.parametrize("corpus", CORPORA)
def test_emitted_programs_round_trip(corpus):
    dataset = build_dataset(corpus, scale=0.02, seed=11)
    sql_parser = _nli_sql_parser()
    # Chat2VIS covers the LLM path, whose program is normalized
    vis_parsers = (
        DataToneVisParser(),
        ParsingBasedSystem().vis_parser,
        build_pipeline().vis_parser,
        Chat2VisParser(),
    )
    queries = programs = 0
    for _db, request in _requests(dataset):
        result = sql_parser.parse(request)
        emitted = [result.query] if result.query is not None else []
        for query in emitted + list(result.candidates):
            queries += 1
            assert parse_sql(to_sql(query)) == query, to_sql(query)
        for vis_parser in vis_parsers:
            vql = vis_parser.parse_vis(request)
            if vql is None:
                continue
            programs += 1
            assert isinstance(vql, VQLQuery)
            assert parse_sql(to_sql(vql.query)) == vql.query
            assert parse_vql(to_vql(vql)) == vql, to_vql(vql)
    assert queries > 100
    if corpus == "nvbench_like":
        assert programs > 100


@pytest.mark.parametrize("corpus", CORPORA)
def test_answers_match_their_displayed_program(corpus):
    """Re-running ``answer.sql`` / re-rendering ``answer.vql`` on a cold
    engine reproduces what the typed pipeline answered."""
    dataset = build_dataset(corpus, scale=0.02, seed=11)
    nlis: dict[str, NaturalLanguageInterface] = {}
    dialogue = None
    sql_checked = vis_checked = 0
    for example in dataset.examples:
        db = dataset.database(example.db_id)
        nli = nlis.setdefault(
            example.db_id, NaturalLanguageInterface(db, lint=True)
        )
        if example.dialogue_id is None or example.dialogue_id != dialogue:
            nli.reset()
        dialogue = example.dialogue_id
        answer = nli.ask(example.question)
        if not answer.ok:
            continue
        if answer.chart is not None:
            clear_plan_caches()
            again = render_chart(answer.vql, db)
            assert again.chart_type == answer.chart.chart_type
            assert again.points == answer.chart.points, answer.vql
            assert again.spec == answer.chart.spec
            assert again.vql == answer.chart.vql == answer.vql
            vis_checked += 1
        elif answer.sql is not None:
            fresh = compile_query(parse_sql(answer.sql), db.schema, db).run(db)
            assert fresh.columns == answer.columns, answer.sql
            assert fresh.rows == answer.rows, answer.sql
            sql_checked += 1
    assert sql_checked + vis_checked > 50
    if corpus == "nvbench_like":
        assert vis_checked > 50


def _count_parses(monkeypatch) -> list:
    """Count every ``parse_sql`` call (VQL parsing included)."""
    calls: list[str] = []
    tokenize = sql_parser_mod.tokenize

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(sql_parser_mod, "tokenize", counting)
    return calls


class TestNoReparse:
    QUESTIONS = (
        "Show the name of products?",
        "Draw a bar chart of the number of orders per quarter?",
        "How many products are there?",
    )

    def test_turns_parse_no_text(self, sales_db, monkeypatch):
        nli = NaturalLanguageInterface(sales_db, lint=True)
        calls = _count_parses(monkeypatch)
        answers = [nli.ask(q) for q in self.QUESTIONS]
        assert all(a.ok for a in answers)
        assert answers[1].chart is not None
        assert calls == []

    def test_served_turns_parse_no_text(self, sales_db, monkeypatch):
        """A served conversation grows its history by the executed AST:
        the session re-parses no answer's SQL."""
        from repro.serve import ServeConfig, Server

        server = Server(
            sales_db, config=ServeConfig(workers=2, session_ttl=None)
        )
        calls = _count_parses(monkeypatch)
        questions = (
            "Show the name of products whose price is above 500?",
            "How many are there?",
            self.QUESTIONS[1],
            "How many orders are there?",
        )
        try:
            answers = [server.ask(q, session_id="talk") for q in questions]
            session = server.sessions.get("talk").interactive
            history = [q for q, _ in session.history]
        finally:
            server.shutdown()
        assert all(a.ok for a in answers)
        assert answers[2].chart is not None
        assert "COUNT(*)" in answers[1].sql and "500" in answers[1].sql
        assert history == [questions[0], questions[1], questions[3]]
        assert calls == []

    def test_history_holds_the_executed_query(self, sales_db):
        nli = NaturalLanguageInterface(sales_db, lint=True)
        answers = [nli.ask(q) for q in self.QUESTIONS]
        # the chart turn adds nothing; each data turn adds its AST once
        assert [q for q, _ in nli.history] == [
            self.QUESTIONS[0], self.QUESTIONS[2]
        ]
        for (_, query), answer in zip(
            nli.history, (answers[0], answers[2])
        ):
            assert to_sql(query) == answer.sql
        # the answer itself carries text only, never the AST
        for answer in answers:
            for value in vars(answer.trace).values():
                assert not isinstance(value, (Node, VQLQuery))

    def test_memo_replay_appends_the_same_query(self, sales_db):
        nli = NaturalLanguageInterface(sales_db, lint=True)
        question = self.QUESTIONS[0]
        first = nli.ask(question)
        (_, executed), = nli.history
        nli.reset()
        replay = nli.ask(question)
        assert replay.trace.cached and not first.trace.cached
        (_, replayed), = nli.history
        assert replayed is executed

    def test_failed_turn_leaves_history_alone(self, sales_db):
        nli = NaturalLanguageInterface(sales_db, lint=True)
        answer = nli.ask("pure nonsense zebra unicorn?")
        assert not answer.ok
        assert nli.history == []

    def test_pipeline_without_history_list(self, sales_db):
        pipeline = NaturalLanguageInterface(sales_db).pipeline
        trace = pipeline.run(self.QUESTIONS[0], sales_db)
        assert trace.succeeded
        assert pipeline.run(self.QUESTIONS[0], sales_db).cached

    def test_shown_program_is_the_repaired_one(self, sales_db):
        wrong = parse_vql(
            "VISUALIZE SCATTER SELECT category, COUNT(*) FROM products "
            "GROUP BY category"
        )

        class WrongChart(VisParser):
            def parse_vis(self, request):
                return wrong

        pipeline = Pipeline(
            _nli_sql_parser(), WrongChart(), vis_lint_gate=VisLintGate()
        )
        trace = pipeline.run("Chart the products per category?", sales_db)
        assert trace.chart is not None
        assert trace.chart.chart_type != "scatter"
        assert trace.stages[1].output == to_vql(wrong)
        assert trace.functional_expression == trace.chart.vql

    def test_corrupted_translation_is_no_translation(self, sales_db):
        pipeline = Pipeline(
            _nli_sql_parser(),
            DataToneVisParser(),
            vis_lint_gate=VisLintGate(),
            resilience=ResiliencePolicy.default(),
        )
        install_faults("translate:corrupt")
        trace = pipeline.run(
            "Show a bar chart of the number of products per category?",
            sales_db,
        )
        assert trace.error == "translation failed"
        assert trace.functional_expression is None
