"""Text-to-Vis parser family tests."""

import pytest

from repro.metrics import evaluate_parser
from repro.parsers.base import ParseRequest
from repro.parsers.vis import (
    Chat2VisParser,
    DataToneVisParser,
    NL2InterfaceParser,
    NcNetParser,
    RGVisNetParser,
    Seq2VisParser,
)
from repro.parsers.vis.base import detect_chart_type
from repro.vis.vql import VQLQuery, parse_vql, to_vql


class TestChartTypeDetection:
    @pytest.mark.parametrize(
        "question,expected",
        [
            ("Show a bar chart of sales?", "bar"),
            ("Draw a pie graph of counts?", "pie"),
            ("Plot a line chart of revenue?", "line"),
            ("Display a scatter plot of x and y?", "scatter"),
            ("Show the proportion breakdown of orders?", "pie"),
            ("Show something with no cue?", "bar"),
        ],
    )
    def test_detection(self, question, expected):
        assert detect_chart_type(question) == expected


class TestTemplateVisParser:
    def test_in_template_bar(self, sales_db):
        vql = DataToneVisParser().parse_vis(
            ParseRequest(
                question="Show a bar chart of the number of products "
                "per category?",
                schema=sales_db.schema,
                db=sales_db,
            )
        )
        assert isinstance(vql, VQLQuery)
        assert vql.chart_type == "bar"
        assert "GROUP BY" in to_vql(vql)

    def test_scatter_template(self, sales_db):
        vql = DataToneVisParser().parse_vis(
            ParseRequest(
                question="Show a scatter plot of price and stock of "
                "products?",
                schema=sales_db.schema,
                db=sales_db,
            )
        )
        assert vql is not None and "SCATTER" in to_vql(vql)

    def test_fails_without_exact_names(self, sales_db):
        vql = DataToneVisParser().parse_vis(
            ParseRequest(
                question="Show a bar chart of how many goods per kind?",
                schema=sales_db.schema,
                db=sales_db,
            )
        )
        assert vql is None

    def test_depluralization_strips_one_s_only(self):
        # rstrip("s") would reduce "boss" to "bo" and match this question
        from repro.data.schema import Column, ColumnType, Schema, TableSchema

        schema = Schema(
            db_id="office",
            tables=(
                TableSchema(
                    "boss",
                    (Column("rank", ColumnType.TEXT),),
                ),
            ),
        )
        vql = DataToneVisParser().parse_vis(
            ParseRequest(
                question="Show a bar chart of bo things per rank?",
                schema=schema,
            )
        )
        assert vql is None


class TestNeuralVisParsers:
    @pytest.fixture(scope="class")
    def trained(self, tiny_nvbench):
        train = tiny_nvbench.split("train").examples
        seq2vis = Seq2VisParser()
        seq2vis.train(train, tiny_nvbench.databases)
        ncnet = NcNetParser()
        ncnet.train(train, tiny_nvbench.databases)
        rgvisnet = RGVisNetParser()
        rgvisnet.train(train, tiny_nvbench.databases)
        return seq2vis, ncnet, rgvisnet

    def test_family_ordering_on_nvbench(self, trained, tiny_nvbench):
        seq2vis, ncnet, rgvisnet = trained
        scores = [
            evaluate_parser(p, tiny_nvbench).accuracy("exact_match")
            for p in (seq2vis, ncnet, rgvisnet)
        ]
        assert scores[0] < scores[1]  # seq2vis << ncnet
        assert scores[1] <= scores[2] + 0.05  # rgvisnet >= ncnet (roughly)

    def test_untrained_returns_none(self, tiny_nvbench):
        example = tiny_nvbench.split("dev").examples[0]
        db = tiny_nvbench.database(example.db_id)
        request = ParseRequest(
            question=example.question, schema=db.schema, db=db
        )
        assert Seq2VisParser().parse_vis(request) is None

    def test_predictions_are_parseable_vql(self, trained, tiny_nvbench):
        _, ncnet, _ = trained
        for example in tiny_nvbench.split("dev").examples[:10]:
            db = tiny_nvbench.database(example.db_id)
            vql = ncnet.parse_vis(
                ParseRequest(
                    question=example.question, schema=db.schema, db=db
                )
            )
            if vql is not None:
                assert parse_vql(to_vql(vql)) == vql

    def test_rgvisnet_codebase_populated(self, trained):
        *_, rgvisnet = trained
        assert rgvisnet.codebase


class TestLLMVisParsers:
    def test_chat2vis_answers(self, tiny_nvbench):
        parser = Chat2VisParser()
        report = evaluate_parser(parser, tiny_nvbench, limit=20)
        assert report.accuracy("exact_match") > 0.4

    def test_nl2interface_uses_demos(self, tiny_nvbench):
        parser = NL2InterfaceParser()
        parser.train(
            tiny_nvbench.split("train").examples, tiny_nvbench.databases
        )
        assert parser.pool
        report = evaluate_parser(parser, tiny_nvbench, limit=20)
        assert report.accuracy("exact_match") > 0.4
