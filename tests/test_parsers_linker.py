"""Schema linker tests: exact, world-knowledge, and fuzzy linking."""

import pytest

from repro.data.domains import domain_by_name
from repro.parsers.linker import SchemaLinker, _edit_distance_at_most_one


@pytest.fixture
def sales_schema():
    return domain_by_name("sales").schema


class TestExactLinking:
    def test_links_table(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        assert linker.tables_in("show all products please") == ["products"]

    def test_links_plural_variants(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        assert linker.tables_in("the product with id 1") == ["products"]

    def test_links_column_with_table(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        columns = linker.columns_in("the price of products")
        assert ("products", "price") in columns

    def test_links_declared_synonyms(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        # "clients" is a declared synonym of customers
        assert "customers" in linker.tables_in("how many clients are there")

    def test_longest_match_wins(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        mentions = linker.link("the order date of orders")
        assert any(
            m.kind == "column" and m.column == "order_date" for m in mentions
        )

    def test_unknown_words_not_linked(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        assert linker.link("completely unrelated zebra words") == []

    def test_column_candidates_multi_table(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        candidates = linker.column_candidates("name")
        tables = {t for t, _ in candidates}
        assert {"products", "customers"} <= tables

    def test_link_phrase_prefers_columns(self, sales_schema):
        linker = SchemaLinker(sales_schema)
        mention = linker.link_phrase("customers city")
        assert mention is not None and mention.kind == "column"
        assert mention.column == "city"


class TestWorldKnowledge:
    def test_out_of_schema_synonyms_require_flag(self, sales_schema):
        exact = SchemaLinker(sales_schema)
        world = SchemaLinker(sales_schema, world_knowledge=True)
        question = "the amount charged of products"
        assert not any(
            m.column == "price" for m in exact.link(question)
        )
        assert any(m.column == "price" for m in world.link(question))


class TestFuzzy:
    def test_edit_distance_helper(self):
        assert _edit_distance_at_most_one("price", "price")
        assert _edit_distance_at_most_one("price", "prics")
        assert _edit_distance_at_most_one("price", "prce")
        assert _edit_distance_at_most_one("price", "pricey")
        assert not _edit_distance_at_most_one("price", "quantity")

    def test_fuzzy_links_typos(self, sales_schema):
        fuzzy = SchemaLinker(sales_schema, fuzzy=True)
        exact = SchemaLinker(sales_schema)
        question = "the prics of products"
        assert any(m.column == "price" for m in fuzzy.link(question))
        assert not any(m.column == "price" for m in exact.link(question))

    def test_fuzzy_match_is_the_first_close_surface_in_index_order(
        self, sales_schema
    ):
        linker = SchemaLinker(sales_schema, world_knowledge=True, fuzzy=True)
        # every one-character edit of every one-word surface, so words
        # within distance 1 of several surfaces are covered too
        words = set()
        for surface in linker._index:
            if " " in surface:
                continue
            for i in range(len(surface)):
                words.add(surface[:i] + surface[i + 1:])
                words.add(surface[:i] + "x" + surface[i + 1:])
        for word in sorted(words):
            expected = next(
                (
                    hit
                    for surface, hit in linker._index.items()
                    if " " not in surface
                    and _edit_distance_at_most_one(word, surface)
                ),
                None,
            )
            match = linker._fuzzy_match_at(word, [(0, len(word))], 0)
            if len(word) < 4 or expected is None:
                assert match is None, word
            else:
                mention, _ = match
                got = (mention.kind, mention.table, mention.column)
                assert got == expected, word

    def test_fuzzy_ignores_short_words(self, sales_schema):
        fuzzy = SchemaLinker(sales_schema, fuzzy=True)
        assert not any(
            m.kind == "column" and m.column == "city"
            for m in fuzzy.link("the cit")
        )
