"""Differential and regression tests for the cost-based optimizer.

Three-way property testing is the backbone: every seeded random query
(reusing ``test_sql_plan``'s generator) must produce identical results
from the optimized row-compiled plan, the optimized vectorized plan, and
the reference interpreter — including on empty tables and all-NULL join keys, and with the index-build
threshold forced to 1 so even four-row fixtures exercise the index paths.
"""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.data.schema import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.errors import SQLError
from repro.sql import index as sqlindex
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import (
    clear_plan_caches,
    compile_query,
    compile_sql,
    configure_caches,
    explain,
    parse_cache_stats,
    plan_cache_stats,
)
from tests.test_sql_plan import _random_query

NUM = ColumnType.NUMBER
TXT = ColumnType.TEXT


@pytest.fixture(autouse=True)
def tiny_index_threshold():
    """Force index builds even on tiny fixtures; restore afterwards."""
    previous = sqlindex.set_min_index_rows(1)
    yield
    sqlindex.set_min_index_rows(previous)


def assert_three_way(sql: str, db: Database) -> None:
    """Reference, row-compiled, and vectorized plans must agree exactly."""
    query = parse_sql(sql)
    try:
        expected = execute_reference(query, db)
    except SQLError as exc:
        for vectorize in (False, True):
            with pytest.raises(type(exc)) as info:
                compile_query(query, db.schema, db, vectorize=vectorize).run(db)
            assert str(info.value) == str(exc), (sql, vectorize)
        return
    for vectorize in (False, True):
        got = compile_query(query, db.schema, db, vectorize=vectorize).run(db)
        assert got.columns == expected.columns, (sql, vectorize)
        assert got.rows == expected.rows, (sql, vectorize)
        assert got.ordered == expected.ordered, (sql, vectorize)


@pytest.fixture
def empty_db(shop_schema) -> Database:
    return Database(schema=shop_schema)


@pytest.fixture
def null_join_db(shop_schema) -> Database:
    db = Database(schema=shop_schema)
    for row in (
        (1, "widget", "tools", 9.5),
        (2, "gadget", None, 19.0),
        (3, None, "food", None),
    ):
        db.insert("products", row)
    for i in range(1, 7):  # every join key NULL
        db.insert("sales", (i, None, i, "Q1" if i % 2 else None))
    return db


class TestThreeWayProperty:
    def test_random_queries_shop(self, shop_db):
        rng = random.Random(4321)
        for _ in range(150):
            assert_three_way(_random_query(rng), shop_db)

    def test_random_queries_empty_tables(self, empty_db):
        rng = random.Random(99)
        for _ in range(100):
            assert_three_way(_random_query(rng), empty_db)

    def test_random_queries_all_null_join_keys(self, null_join_db):
        rng = random.Random(7)
        for _ in range(100):
            assert_three_way(_random_query(rng), null_join_db)

    def test_semi_join_lowering(self, shop_db):
        sql = (
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales WHERE quantity > 2)"
        )
        assert_three_way(sql, shop_db)
        plan = compile_query(parse_sql(sql), shop_db.schema, shop_db)
        assert plan.describe()["semi_joins"] == 1

    def test_semi_join_on_empty_source(self, empty_db):
        assert_three_way(
            "SELECT name FROM products WHERE id IN "
            "(SELECT product_id FROM sales)",
            empty_db,
        )


# ----------------------------------------------------------------------
@pytest.fixture
def mart_db() -> Database:
    """Three joinable tables with skewed sizes, for join reordering."""
    schema = Schema(
        db_id="mart",
        tables=(
            TableSchema(
                "customers",
                (Column("id", NUM), Column("name", TXT), Column("city", TXT)),
                primary_key="id",
            ),
            TableSchema(
                "orders",
                (
                    Column("id", NUM),
                    Column("customer_id", NUM),
                    Column("product_id", NUM),
                    Column("quantity", NUM),
                ),
                primary_key="id",
            ),
            TableSchema(
                "products",
                (Column("id", NUM), Column("name", TXT), Column("price", NUM)),
                primary_key="id",
            ),
        ),
        foreign_keys=(
            ForeignKey("orders", "customer_id", "customers", "id"),
            ForeignKey("orders", "product_id", "products", "id"),
        ),
    )
    db = Database(schema=schema)
    rng = random.Random(5)
    cities = ("east", "west", None)
    for i in range(40):
        db.insert("customers", (i, f"c{i}", rng.choice(cities)))
    for i in range(25):
        db.insert("products", (i, f"p{i}", rng.randrange(5, 200)))
    for i in range(300):
        db.insert(
            "orders",
            (
                i,
                rng.choice((rng.randrange(40), None)),
                rng.randrange(25),
                rng.randrange(1, 9),
            ),
        )
    return db


_MART_JOIN = (
    "FROM orders AS o JOIN customers AS c ON c.id = o.customer_id "
    "JOIN products AS p ON p.id = o.product_id"
)


class TestJoinReordering:
    def test_reorder_fires_and_agrees(self, mart_db):
        sql = (
            f"SELECT c.name, p.name {_MART_JOIN} "
            "WHERE p.price > 150 ORDER BY c.name, p.name"
        )
        assert_three_way(sql, mart_db)
        plan = compile_query(parse_sql(sql), mart_db.schema, mart_db)
        assert plan.describe()["join_reorders"] == 1

    def test_reorder_preserves_written_order_rows(self, mart_db):
        # no ORDER BY: row order must still match written-order enumeration
        assert_three_way(
            f"SELECT o.id, c.name, p.price {_MART_JOIN} "
            "WHERE p.price <= 60",
            mart_db,
        )

    def test_reorder_with_aggregation(self, mart_db):
        assert_three_way(
            f"SELECT c.city, COUNT(*), SUM(o.quantity) {_MART_JOIN} "
            "WHERE p.price BETWEEN 20 AND 120 GROUP BY c.city",
            mart_db,
        )

    def test_left_join_never_reordered(self, mart_db):
        sql = (
            "SELECT c.name, p.name FROM orders AS o "
            "LEFT JOIN customers AS c ON c.id = o.customer_id "
            "JOIN products AS p ON p.id = o.product_id WHERE p.price > 100"
        )
        assert_three_way(sql, mart_db)
        plan = compile_query(parse_sql(sql), mart_db.schema, mart_db)
        assert plan.describe()["join_reorders"] == 0

    def test_topk_order_by_limit(self, mart_db):
        sql = "SELECT name, price FROM products ORDER BY price DESC LIMIT 3"
        assert_three_way(sql, mart_db)
        plan = compile_query(parse_sql(sql), mart_db.schema, mart_db)
        assert plan.describe()["topk_sorts"] == 1


# ----------------------------------------------------------------------
class TestStalePlanHazard:
    def test_insert_between_cached_executions(self, shop_db):
        """A cached plan must see rows inserted after its first execution."""
        clear_plan_caches()
        sql = "SELECT name FROM products WHERE id = 99"
        first = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert first.rows == []
        shop_db.insert("products", (99, "late", "tools", 1.0))
        second = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert second.rows == [("late",)]
        assert plan_cache_stats()["hits"] >= 1  # same plan object both times

    def test_insert_invalidates_sorted_index_topk(self, shop_db):
        clear_plan_caches()
        sql = "SELECT name FROM products ORDER BY price DESC LIMIT 1"
        first = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert first.rows == [("gadget",)]
        shop_db.insert("products", (50, "deluxe", "tools", 500.0))
        second = compile_sql(sql, shop_db.schema, shop_db).run(shop_db)
        assert second.rows == [("deluxe",)]

    def test_stats_refresh_across_variants(self, shop_db):
        # one cached plan, executed against a structurally different copy
        clear_plan_caches()
        sql = "SELECT COUNT(*) FROM sales WHERE quantity >= 3"
        plan = compile_sql(sql, shop_db.schema, shop_db)
        assert plan.run(shop_db).rows == [(3,)]
        variant = shop_db.copy()
        variant.table("sales").replace_rows([(1, 1, 9, "Q9")])
        assert plan.run(variant).rows == [(1,)]


# ----------------------------------------------------------------------
class TestExplainAndCaches:
    def test_explain_estimates_and_actuals(self, mart_db):
        text = explain(
            f"SELECT c.name {_MART_JOIN} WHERE p.price > 150", mart_db
        )
        assert "est_rows=" in text
        assert "actual_rows=" in text
        assert "scan" in text
        assert "-- plan (optimized)" in text

    def test_explain_reports_execution_errors(self, shop_db):
        text = explain("SELECT name + 1 FROM products", shop_db)
        assert "-- execution failed:" in text

    def test_plan_cache_key_is_query_and_schema(self, shop_db):
        from repro.sql import plan as plan_module

        clear_plan_caches()
        sql = "SELECT name FROM products WHERE price > 5"
        first = compile_sql(sql, shop_db.schema, shop_db)
        assert compile_sql(sql, shop_db.schema, shop_db) is first
        (key,) = plan_module._PLAN_CACHE
        assert key == (first.query, plan_module._schema_token(shop_db.schema))

    def test_configurable_cache_sizes(self, shop_db):
        clear_plan_caches()
        configure_caches(plan_size=2, parse_size=2)
        try:
            for i in range(5):
                compile_sql(
                    f"SELECT name FROM products WHERE id = {i}",
                    shop_db.schema,
                )
            assert plan_cache_stats()["size"] <= 2
            assert plan_cache_stats()["max_size"] == 2
            assert parse_cache_stats()["size"] <= 2
            assert parse_cache_stats()["misses"] >= 5
        finally:
            configure_caches(plan_size=512, parse_size=2048)
            clear_plan_caches()
