"""Three-way differential tests for the vectorized backend (repro.sql.vector).

The tree-walking interpreter ``execute_reference`` is the oracle; the
row-compiled plan and the vectorized plan must both agree with it — same
columns, rows, ordered-ness, and on failing queries the same error type
and message.  Coverage mirrors ``test_sql_plan``: every gold query from
the generated spider/wikisql/nvbench corpora, a seeded random-query
sweep, plus targeted tests for the batch cache, the explain annotations,
the obs counters, and the row plan that ``vectorize=False`` compiles.
"""

from __future__ import annotations

import random

import pytest

from repro.data.database import Database
from repro.errors import SQLError
from repro.sql import vector as vec
from repro.sql.executor import execute_reference
from repro.sql.parser import parse_sql
from repro.sql.plan import clear_plan_caches, compile_query, plan_for

def assert_three_way_agree(sql: str, db: Database) -> None:
    """Reference vs row-compiled vs vectorized: identical results or errors."""
    query = parse_sql(sql)
    try:
        expected = execute_reference(query, db)
    except SQLError as exc:
        for vectorize in (False, True):
            plan = compile_query(query, db.schema, db, vectorize=vectorize)
            with pytest.raises(type(exc)) as info:
                plan.run(db)
            assert str(info.value) == str(exc), (sql, vectorize)
        return
    for vectorize in (False, True):
        plan = compile_query(query, db.schema, db, vectorize=vectorize)
        got = plan.run(db)
        assert got.columns == expected.columns, (sql, vectorize)
        assert got.rows == expected.rows, (sql, vectorize)
        assert got.ordered == expected.ordered, (sql, vectorize)


def _dataset_differential(dataset) -> int:
    checked = 0
    for split in dataset.splits.values():
        for example in split.examples:
            db = dataset.database(example.db_id)
            assert_three_way_agree(example.sql, db)
            checked += 1
    return checked


# ----------------------------------------------------------------------
# Gold queries from the generated corpora.
class TestGoldQueryDifferential:
    def test_cross_domain_golds(self, tiny_spider):
        assert _dataset_differential(tiny_spider) >= 100

    def test_wikisql_golds(self, tiny_wikisql):
        assert _dataset_differential(tiny_wikisql) >= 100

    def test_nvbench_golds(self, tiny_nvbench):
        assert _dataset_differential(tiny_nvbench) >= 100


# ----------------------------------------------------------------------
# Seeded random queries over the shared shop fixture.
def test_seeded_random_queries_differential(shop_db):
    from tests.test_sql_plan import _random_query

    rng = random.Random(4321)
    for _ in range(250):
        assert_three_way_agree(_random_query(rng), shop_db)


def test_random_queries_on_generated_database(sales_db):
    table = next(iter(sales_db.tables))
    assert_three_way_agree(f"SELECT COUNT(*) FROM {table}", sales_db)
    assert_three_way_agree(f"SELECT * FROM {table} LIMIT 7", sales_db)


# ----------------------------------------------------------------------
# Targeted semantics the kernels must not get wrong.
class TestKernelSemantics:
    @pytest.mark.parametrize(
        "sql",
        [
            # numeric comparison over a column holding NULL
            "SELECT name FROM products WHERE price > 5",
            # string ranks above numbers in the total order
            "SELECT name FROM products WHERE price < 'zzz'",
            # NOT IN with a NULL member is never TRUE
            "SELECT name FROM products WHERE price NOT IN (1.0, NULL)",
            # BETWEEN with NULL bound
            "SELECT name FROM products WHERE price BETWEEN NULL AND 10",
            "SELECT name FROM products WHERE NOT price BETWEEN 2 AND 10",
            "SELECT name FROM products WHERE name LIKE '%a%' OR price >= 9.5",
            "SELECT category FROM products WHERE price IS NULL",
            # empty-group plain column must raise identically
            "SELECT name, COUNT(*) FROM products WHERE price > 999 "
            "GROUP BY category",
            # aggregate over non-numeric text must raise identically
            "SELECT SUM(name) FROM products",
            # ORDER BY output alias vs recomputed aggregate
            "SELECT category, COUNT(*) AS n FROM products GROUP BY category "
            "ORDER BY n DESC",
            "SELECT category, MIN(price) FROM products GROUP BY category "
            "ORDER BY MIN(price)",
            # DISTINCT aggregate
            "SELECT COUNT(DISTINCT category) FROM products",
            "SELECT AVG(quantity) FROM sales WHERE quarter = 'Q2'",
        ],
    )
    def test_targeted(self, sql, shop_db):
        assert_three_way_agree(sql, shop_db)

    def test_join_with_filter(self, shop_db):
        assert_three_way_agree(
            "SELECT p.name, s.quantity FROM products AS p "
            "JOIN sales AS s ON s.product_id = p.id WHERE p.price > 1",
            shop_db,
        )
        assert_three_way_agree(
            "SELECT p.name, s.quantity FROM products AS p "
            "LEFT JOIN sales AS s ON s.product_id = p.id",
            shop_db,
        )


# ----------------------------------------------------------------------
# Batch cache, explain annotations, counters, row plans.
class TestVectorMachinery:
    def test_column_batch_cached_until_mutation(self, shop_db):
        table = shop_db.table("products")
        original_len = len(table.rows)
        first = vec.column_batch(table)
        names_before = list(first.column(1))
        assert vec.column_batch(table) is first
        table.append((9, "new", "tools", 3.0))
        second = vec.column_batch(table)
        assert second is not first
        assert len(second.rows) == original_len + 1
        assert second.column(1) == names_before + ["new"]

    def test_explain_annotates_vectorized_nodes(self, shop_db):
        plan = compile_query(
            parse_sql("SELECT name FROM products WHERE price > 5"),
            shop_db.schema,
            shop_db,
            vectorize=True,
        )
        text = plan.explain(shop_db)
        assert "vectorized=yes" in text
        assert "-- plan (optimized)" in text

    def test_fallback_annotated_and_counted(self, shop_db):
        # arithmetic inside the aggregate is outside the safe kernel subset
        before = vec.FALLBACKS.value
        plan = compile_query(
            parse_sql(
                "SELECT category, SUM(price * 2) FROM products "
                "GROUP BY category"
            ),
            shop_db.schema,
            shop_db,
            vectorize=True,
        )
        assert "vectorized=no" in plan.explain(shop_db)
        assert vec.FALLBACKS.value > before

    def test_batches_counter_ticks(self, shop_db):
        before = vec.BATCHES.value
        plan = compile_query(
            parse_sql("SELECT name FROM products WHERE price > 5"),
            shop_db.schema,
            shop_db,
            vectorize=True,
        )
        plan.run(shop_db)
        assert vec.BATCHES.value > before

    def test_row_plan_is_unannotated(self, shop_db):
        query = parse_sql("SELECT name FROM products WHERE price > 5")
        clear_plan_caches()
        cached_plan = plan_for(query, shop_db.schema, shop_db)
        row_plan = compile_query(query, shop_db.schema, shop_db,
                                 vectorize=False)
        assert cached_plan.vectorized and not row_plan.vectorized
        assert "vectorized" not in row_plan.explain(shop_db)
        assert row_plan.run(shop_db).rows == cached_plan.run(shop_db).rows
        assert plan_for(query, shop_db.schema, shop_db) is cached_plan
