"""Metric battery tests (survey Section 5): behaviour of every metric."""

import pytest

from repro.metrics import test_suite_match as suite_match
from repro.metrics import (
    bleu,
    component_match,
    evaluate_parser,
    exact_string_match,
    execution_match,
    fuzzy_match,
    make_database_variants,
    partial_match,
    strict_string_match,
    vis_component_match,
    vis_exact_match,
)


class TestStringMatch:
    def test_strict_requires_identical(self):
        assert strict_string_match("SELECT a FROM t", "SELECT  a  FROM t")
        assert not strict_string_match("select a from t", "SELECT a FROM t")

    def test_exact_forgives_case_and_alias(self):
        assert exact_string_match(
            "select P.name from products p", "SELECT name FROM products"
        )

    def test_exact_rejects_different_structure(self):
        assert not exact_string_match(
            "SELECT a FROM t", "SELECT a FROM t WHERE x = 1"
        )

    def test_exact_false_negative_on_equivalent_rewrites(self):
        """The documented blindness: IN-subquery vs JOIN equivalents."""
        assert not exact_string_match(
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales)",
            "SELECT p.name FROM products p JOIN sales s ON "
            "s.product_id = p.id",
        )

    def test_unparseable_prediction_fails(self):
        assert not exact_string_match("SELECT FROM", "SELECT a FROM t")


class TestBleu:
    def test_identical_scores_one(self):
        assert bleu("SELECT a FROM t", "SELECT a FROM t") == pytest.approx(
            1.0, abs=0.15
        )

    def test_bounds(self):
        score = bleu("SELECT a FROM t WHERE x = 1", "SELECT b FROM u")
        assert 0.0 <= score <= 1.0

    def test_empty_is_zero(self):
        assert bleu("", "SELECT a FROM t") == 0.0

    def test_fuzzy_accepts_single_token_slip(self):
        assert fuzzy_match(
            "SELECT name FROM products WHERE price > 6",
            "SELECT name FROM products WHERE price > 5",
        )

    def test_fuzzy_rejects_structurally_different(self):
        assert not fuzzy_match(
            "SELECT COUNT(*) FROM sales",
            "SELECT name, price FROM products WHERE category = 'x' "
            "ORDER BY price DESC LIMIT 3",
        )

    def test_fuzzy_leniency_is_a_false_positive_source(self):
        """Fuzzy match accepts a wrong-column prediction exact match rejects."""
        gold = "SELECT name FROM products WHERE price > 5"
        wrong = "SELECT category FROM products WHERE price > 5"
        assert not exact_string_match(wrong, gold)
        assert fuzzy_match(wrong, gold)


class TestComponentMatch:
    def test_condition_order_forgiven(self):
        assert component_match(
            "SELECT a FROM t WHERE x = 1 AND y = 2",
            "SELECT a FROM t WHERE y = 2 AND x = 1",
        )

    def test_partial_scores_clause_level(self):
        scores = partial_match(
            "SELECT a FROM t WHERE x = 1 ORDER BY a ASC",
            "SELECT a FROM t WHERE x = 1 ORDER BY a DESC",
        )
        assert scores["select"] and scores["where"]
        assert not scores["order_by"]

    def test_unparseable_gives_all_false(self):
        scores = partial_match("garbage(", "SELECT a FROM t")
        assert not any(scores.values())


class TestExecutionMatch:
    def test_syntactically_different_equivalents_match(self, shop_db):
        assert execution_match(
            "SELECT name FROM products WHERE price > 5",
            "SELECT name FROM products WHERE price > 5.0",
            shop_db,
        )

    def test_semantically_different_fail(self, shop_db):
        assert not execution_match(
            "SELECT name FROM products WHERE price > 5",
            "SELECT name FROM products WHERE price > 10",
            shop_db,
        )

    def test_order_sensitive_only_with_gold_order(self, shop_db):
        # unordered gold: row order is irrelevant
        assert execution_match(
            "SELECT name FROM products ORDER BY name",
            "SELECT name FROM products",
            shop_db,
        )
        # ordered gold: order matters
        assert not execution_match(
            "SELECT name FROM products ORDER BY price ASC",
            "SELECT name FROM products ORDER BY price DESC",
            shop_db,
        )

    def test_known_false_positive_on_coincidence(self, shop_db):
        """Both categories have 2 products: COUNT collides — the naive
        execution match false positive the survey documents."""
        assert execution_match(
            "SELECT COUNT(*) FROM products WHERE category = 'tools'",
            "SELECT COUNT(*) FROM products WHERE category = 'food'",
            shop_db,
        )

    def test_invalid_prediction_fails(self, shop_db):
        assert not execution_match(
            "SELECT missing FROM products", "SELECT name FROM products",
            shop_db,
        )


class TestTestSuiteMatch:
    def test_variants_generated(self, shop_db):
        variants = make_database_variants(shop_db, count=5, seed=1)
        assert len(variants) == 5
        assert variants[0] is shop_db  # original kept
        assert any(
            v.table("products").rows != shop_db.table("products").rows
            for v in variants[1:]
        )

    def test_equivalent_queries_survive_variants(self, shop_db):
        assert suite_match(
            "SELECT name FROM products WHERE price >= 5",
            "SELECT name FROM products WHERE price >= 5.0",
            shop_db,
        )

    def test_kills_coincidental_execution_match(self, shop_db):
        """The false positive above dies under content fuzzing."""
        assert not suite_match(
            "SELECT COUNT(*) FROM products WHERE category = 'tools'",
            "SELECT COUNT(*) FROM products WHERE category = 'food'",
            shop_db,
        )

    def test_self_match_always_passes(self, shop_db):
        sql = "SELECT category, COUNT(*) FROM products GROUP BY category"
        assert suite_match(sql, sql, shop_db)

    def test_fuzzing_never_empties_a_table(self, shop_db):
        # a variant fuzzed to zero rows makes most query pairs vacuously
        # agree; the minimum-keep floor guarantees at least a quarter of
        # the original rows survive in every variant
        for seed in range(25):
            for variant in make_database_variants(shop_db, count=8, seed=seed):
                for name, table in variant.tables.items():
                    original = len(shop_db.table(name).rows)
                    floor = max(1, original // 4)
                    assert len(table.rows) >= floor, (seed, name)


class TestVisMetrics:
    GOLD = "VISUALIZE BAR SELECT category, COUNT(*) FROM products GROUP BY category"

    def test_exact_match_canonicalizes(self):
        assert vis_exact_match(
            "visualize bar select category, count(*) from products "
            "group by category",
            self.GOLD,
        )

    def test_chart_type_mismatch_fails_exact(self):
        assert not vis_exact_match(
            self.GOLD.replace("BAR", "PIE"), self.GOLD
        )

    def test_component_flags(self, shop_db):
        flags = vis_component_match(
            self.GOLD.replace("BAR", "PIE"), self.GOLD, shop_db
        )
        assert not flags["chart_type"]
        assert flags["data"] and flags["axes"]

    def test_wrong_data_detected(self, shop_db):
        flags = vis_component_match(
            "VISUALIZE BAR SELECT quarter, COUNT(*) FROM sales "
            "GROUP BY quarter",
            self.GOLD,
            shop_db,
        )
        assert flags["chart_type"]
        assert not flags["data"]

    def test_unparseable_prediction_all_false(self, shop_db):
        flags = vis_component_match("nonsense", self.GOLD, shop_db)
        assert not any(flags.values())

    def test_set_operation_axes_follow_left_branch(self, shop_db):
        # the axes comparison walks the parsed AST down to the leftmost
        # SELECT, the branch whose columns name the chart's axes
        gold = (
            "VISUALIZE BAR SELECT category, COUNT(*) FROM products "
            "GROUP BY category UNION SELECT quarter, COUNT(*) FROM sales "
            "GROUP BY quarter"
        )
        flags = vis_component_match(gold, gold, shop_db)
        assert all(flags.values())
        swapped = (
            "VISUALIZE BAR SELECT quarter, COUNT(*) FROM sales "
            "GROUP BY quarter UNION SELECT category, COUNT(*) FROM products "
            "GROUP BY category"
        )
        flags = vis_component_match(swapped, gold, shop_db)
        assert flags["chart_type"]
        assert not flags["axes"]


class TestEvaluationLoop:
    def test_report_shape(self, tiny_wikisql):
        from repro.parsers.semantic import GrammarSemanticParser

        report = evaluate_parser(
            GrammarSemanticParser(), tiny_wikisql, limit=25
        )
        assert report.total == 25
        assert 0 <= report.accuracy("execution_match") <= 1
        data = report.as_dict()
        assert data["parser"] == "grammar semantic parser"
        assert set(report.hardness_accuracy()) <= {
            "easy", "medium", "hard", "extra",
        }

    def test_with_test_suite_metric(self, tiny_wikisql):
        from repro.parsers.semantic import GrammarSemanticParser

        report = evaluate_parser(
            GrammarSemanticParser(), tiny_wikisql, with_test_suite=True,
            limit=10,
        )
        assert "test_suite_match" in report.metric_hits or report.total == 10

    def test_metric_ordering_invariant(self, tiny_wikisql):
        """exact ⊆ component and exact ⊆ execution, always."""
        from repro.parsers.semantic import GrammarSemanticParser

        report = evaluate_parser(GrammarSemanticParser(), tiny_wikisql)
        exact = report.metric_hits.get("exact_match", 0)
        assert exact <= report.metric_hits.get("component_match", 0)
        assert exact <= report.metric_hits.get("execution_match", 0)


class _NeverSQL:
    name = "never"

    def parse(self, request):
        from repro.parsers.base import ParseResult

        return ParseResult(query=None)


class _NeverVis:
    name = "never vis"

    def parse_vis(self, request):
        return None


class TestZeroHitMetrics:
    """A metric that never hits is reported as 0.0, not dropped."""

    def test_bird_like_keeps_execution_match(self):
        from repro.datasets import build_dataset
        from repro.parsers.semantic import GrammarSemanticParser

        bird = build_dataset("bird_like", scale=0.01, seed=0)
        report = evaluate_parser(GrammarSemanticParser(), bird)
        data = report.as_dict()
        for metric in ("exact_match", "component_match", "execution_match"):
            assert data[metric] == round(report.accuracy(metric), 4)
        assert report.metrics == sorted(report.example_hits)

    def test_unparsed_sql_run_reports_every_metric(self, tiny_wikisql):
        report = evaluate_parser(
            _NeverSQL(), tiny_wikisql, with_test_suite=True, limit=6
        )
        data = report.as_dict()
        assert report.parse_failures == 6
        for metric in (
            "exact_match", "component_match", "execution_match",
            "test_suite_match",
        ):
            assert data[metric] == 0.0
            assert report.example_hits[metric] == [False] * 6

    def test_unparsed_vis_run_reports_every_metric(self, tiny_nvbench):
        report = evaluate_parser(_NeverVis(), tiny_nvbench, limit=5)
        data = report.as_dict()
        for metric in (
            "exact_match", "vis_axes", "vis_chart_type", "vis_data",
        ):
            assert data[metric] == 0.0
            assert report.example_hits[metric] == [False] * 5


def _scored(report) -> dict:
    data = report.as_dict()
    del data["seconds"]
    return data


class TestTracedEvaluation:
    """Tracing observes an evaluation; it never changes its verdicts."""

    @pytest.mark.parametrize("corpus", ["spider_like", "nvbench_like"])
    def test_traced_run_equals_untraced(self, corpus):
        from repro.datasets import build_dataset
        from repro.obs import trace as obs_trace
        from repro.parsers.semantic import GrammarSemanticParser
        from repro.parsers.vis.rule import DataToneVisParser
        from repro.sql.plan import clear_plan_caches

        dataset = build_dataset(corpus, scale=0.01, seed=3)

        def run():
            clear_plan_caches()
            if dataset.task == "vis":
                return evaluate_parser(DataToneVisParser(), dataset)
            parser = GrammarSemanticParser()
            parser.train(
                dataset.split("train").examples, dataset.databases
            )
            return evaluate_parser(parser, dataset, with_test_suite=True)

        untraced = run()
        with obs_trace.tracing() as roots:
            traced = run()
        assert roots  # the traced run really recorded spans
        assert _scored(traced) == _scored(untraced)
        assert traced.example_hits == untraced.example_hits
        assert traced.hardness_hits == untraced.hardness_hits
        assert any(untraced.metric_hits.values())
