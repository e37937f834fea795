"""The one production stack: ``build_pipeline`` builds what is asked,
served, evaluated and benchmarked, and one trace→answer mapping turns
its traces into answers on every front end."""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro import NaturalLanguageInterface
from repro.core.interface import build_pipeline
from repro.eval.cli import main as eval_main
from repro.parsers.base import ParseRequest
from repro.parsers.vis.rule import DataToneVisParser
from repro.resilience import ResiliencePolicy, clear_faults, install_faults
from repro.serve import ServeConfig, Server
from repro.systems.architectures import PipelineSystem

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"),
)

from bench_resilience import QUESTIONS as RESILIENCE_QUESTIONS  # noqa: E402

CHART = "draw a bar chart of the number of products per category"

#: chart requests the DataTone template parser cannot parse
NON_TEMPLATE_CHARTS = [
    "draw a line chart of the total quantity of orders per product",
    "visualize the number of orders per customer",
    "draw a pie chart of the number of customers per region",
]


def _stack(pipeline) -> tuple:
    """Everything that configures a pipeline, comparable by value."""
    sql = pipeline.sql_parser
    return (
        type(sql),
        vars(sql).get("world_knowledge"),
        vars(sql).get("fuzzy"),
        vars(sql).get("use_history"),
        vars(sql).get("use_knowledge"),
        type(pipeline.vis_parser),
        type(pipeline.lint_gate),
        type(pipeline.vis_lint_gate),
        pipeline.resilience,
    )


class TestFactory:
    def test_nli_server_and_system_share_one_stack(self, sales_db):
        nli = NaturalLanguageInterface(sales_db, lint=True, resilience=True)
        server = Server(sales_db, start=False)
        expected = _stack(nli.pipeline)
        assert _stack(PipelineSystem().pipeline) == expected
        assert _stack(server.system.pipeline) == expected
        assert _stack(build_pipeline(lint=True, resilience=True)) == expected
        assert nli.pipeline.resilience == ResiliencePolicy.default()
        server.shutdown()

    def test_vis_parser_wraps_the_stacks_sql_parser(self):
        pipeline = build_pipeline()
        assert pipeline.vis_parser._parser is pipeline.sql_parser

    @pytest.mark.parametrize("resilience", [None, False])
    def test_resilience_off(self, resilience):
        pipeline = build_pipeline(lint=True, resilience=resilience)
        assert pipeline.resilience is None
        assert pipeline.lint_gate is not None

    def test_model_stack(self):
        pipeline = build_pipeline("chatgpt-like")
        assert type(pipeline.sql_parser).__name__ == "MultiStageLLMParser"
        assert type(pipeline.vis_parser).__name__ == "Chat2VisParser"
        assert pipeline.lint_gate is None and pipeline.resilience is None


class TestServedEqualsDirect:
    def test_default_server_answers_as_the_nli(self, sales_db):
        questions = RESILIENCE_QUESTIONS + NON_TEMPLATE_CHARTS
        # the chart questions need the semantic vis parser to answer
        for question in NON_TEMPLATE_CHARTS:
            request = ParseRequest(
                question=question, schema=sales_db.schema, db=sales_db
            )
            assert DataToneVisParser().parse_vis(request) is None
        nli = NaturalLanguageInterface(sales_db, lint=True, resilience=True)
        expected = [nli.ask(question) for question in questions]
        server = Server(
            sales_db, config=ServeConfig(workers=1, session_ttl=None)
        )
        served = [
            server.ask(question, session_id="mirror") for question in questions
        ]
        server.shutdown()
        for question, want, got in zip(questions, expected, served):
            assert want.ok, question
            assert got.ok == want.ok, question
            assert (got.sql, got.vql) == (want.sql, want.vql), question
            assert got.rows == want.rows, question
            want_points = want.chart.points if want.chart else None
            got_points = got.chart.points if got.chart else None
            assert got_points == want_points, question
        assert sum(a.chart is not None for a in expected) == 4


class TestTraceToAnswer:
    """A chart turn always reports VQL, a data turn SQL — also when the
    chart degrades to data only or fails."""

    def test_degraded_chart_turn_keeps_its_vql(self, sales_db):
        nli = NaturalLanguageInterface(sales_db, resilience=True)
        system = PipelineSystem()
        install_faults("render:error")
        try:
            answer = nli.ask(CHART)
            response = system.answer(CHART, sales_db)
        finally:
            clear_faults()
        assert "render:data-only" in answer.degraded
        assert answer.chart is None and answer.rows
        assert answer.sql is None
        assert answer.vql.startswith("VISUALIZE BAR")
        assert response.kind == "data"
        assert (response.sql, response.vql) == (None, answer.vql)
        assert response.result.rows == answer.rows

    def test_healthy_turns(self, sales_db):
        nli = NaturalLanguageInterface(sales_db)
        system = PipelineSystem()
        data, chart = nli.ask(RESILIENCE_QUESTIONS[0]), nli.ask(CHART)
        assert data.sql.startswith("SELECT") and data.vql is None
        assert chart.sql is None and chart.vql.startswith("VISUALIZE")
        assert not data.trace.vis_intent and chart.trace.vis_intent
        for answer in (data, chart):
            response = system.answer(answer.trace.question, sales_db)
            assert (response.sql, response.vql) == (answer.sql, answer.vql)

    def test_memo_replay_keeps_the_intent(self, sales_db):
        nli = NaturalLanguageInterface(sales_db)
        nli.ask(CHART)
        replay = nli.ask(CHART)
        assert replay.trace.cached and replay.trace.vis_intent
        assert replay.vql is not None and replay.sql is None


def test_eval_scores_the_served_parser(capsys):
    assert eval_main(["--dataset", "bird_like", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["execution_match"] == 1.0
    assert report["parse_failures"] == 0
