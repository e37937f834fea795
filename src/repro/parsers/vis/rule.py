"""Template-based Text-to-Vis parser (DataTone / ADVISor / NL4DV lineage).

The traditional Vis systems filled a small set of visualization templates
from keyword matches: a chart-type keyword, an optional aggregate keyword,
an exact-named category column for the axis, and an exact-named measure.
This parser reproduces that template space — count/aggregate per category
(bar/pie/line) and numeric pair (scatter) — over exact schema names only,
with the documented brittleness to paraphrase and synonym variation.
"""

from __future__ import annotations

from repro.data.schema import ColumnType, TableSchema
from repro.parsers.base import ParseRequest
from repro.parsers.vis.base import VisParser, detect_chart_type
from repro.sql.ast import (
    ColumnRef,
    FuncCall,
    Select,
    SelectItem,
    Star,
    TableRef,
)
from repro.vis.vql import VQLQuery

_AGG_KEYWORDS = (
    ("average", "avg"), ("mean", "avg"), ("total", "sum"), ("sum", "sum"),
    ("minimum", "min"), ("maximum", "max"),
)


class DataToneVisParser(VisParser):
    """See module docstring."""

    name = "template vis parser"
    stage = "traditional"
    year = 2015

    def parse_vis(self, request: ParseRequest) -> VQLQuery | None:
        question = request.question.lower()
        chart_type = detect_chart_type(question)

        table = self._find_table(question, request)
        if table is None:
            return None

        if chart_type == "scatter":
            return self._scatter(question, table, chart_type)
        return self._category_chart(question, table, chart_type)

    # ------------------------------------------------------------------
    def _find_table(
        self, question: str, request: ParseRequest
    ) -> TableSchema | None:
        for table in request.schema.tables:
            name = table.name.lower().replace("_", " ")
            # removesuffix, not rstrip: rstrip("s") strips *all* trailing
            # 's' chars ("boss" -> "bo"), matching unrelated words
            if name in question or name.removesuffix("s") in question:
                return table
        return None

    def _scatter(
        self, question: str, table: TableSchema, chart_type: str
    ) -> VQLQuery | None:
        numeric = [
            c
            for c in table.columns
            if c.type is ColumnType.NUMBER
            and c.name.lower().replace("_", " ") in question
        ]
        if len(numeric) < 2:
            return None
        query = Select(
            items=(
                SelectItem(expr=ColumnRef(column=numeric[0].name.lower())),
                SelectItem(expr=ColumnRef(column=numeric[1].name.lower())),
            ),
            from_=TableRef(name=table.name.lower()),
        )
        return self.assemble_vql(chart_type, query)

    def _category_chart(
        self, question: str, table: TableSchema, chart_type: str
    ) -> VQLQuery | None:
        category = None
        for column in table.columns:
            if column.type is not ColumnType.TEXT:
                continue
            if column.name.lower().replace("_", " ") in question:
                category = column
                break
        if category is None:
            return None

        agg = "count"
        agg_column = None
        for keyword, func in _AGG_KEYWORDS:
            if keyword in question:
                numeric = [
                    c
                    for c in table.columns
                    if c.type is ColumnType.NUMBER
                    and c.name.lower().replace("_", " ") in question
                ]
                if numeric:
                    agg = func
                    agg_column = numeric[0]
                break

        if agg == "count":
            agg_expr = FuncCall(name="count", args=(Star(),))
        else:
            agg_expr = FuncCall(
                name=agg,
                args=(ColumnRef(column=agg_column.name.lower()),),
            )
        group_ref = ColumnRef(column=category.name.lower())
        query = Select(
            items=(SelectItem(expr=group_ref), SelectItem(expr=agg_expr)),
            from_=TableRef(name=table.name.lower()),
            group_by=(group_ref,),
        )
        return self.assemble_vql(chart_type, query)
