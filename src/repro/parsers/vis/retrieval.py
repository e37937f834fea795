"""Retrieval-then-revision Text-to-Vis parser (RGVisNet lineage).

RGVisNet retrieves the most relevant *delexicalized* VQL skeleton from a
codebase of training queries, then revises it with a learned decoder, and
reports gains over pure generation models (ncNet) on nvBench.  We
reproduce the architecture over our substrate:

1. **generation backbone** — the full relation-aware grammar parser (graph
   features on, unlike the ncNet sequence model) with a trained chart-type
   head;
2. **retrieval** — training VQLs are delexicalized into typed-slot
   skeletons indexed by their question's token profile;
3. **revision** — when the generation backbone fails (no candidate or an
   invalid query), the nearest skeleton is re-grounded in the current
   schema by the backbone's role rankers and used as the recovery path.

The combination dominates ncNet for two reasons that mirror the paper's:
the stronger schema encoding, and skeleton recovery on structures the
generator cannot compose.
"""

from __future__ import annotations

import re

import numpy as np

from repro.data.database import Database
from repro.data.schema import ColumnType
from repro.datasets.base import Example
from repro.errors import ReproError
from repro.parsers.base import ParseRequest
from repro.parsers.neural.features import FeatureConfig, question_vector
from repro.parsers.neural.grammar import GrammarNeuralParser
from repro.parsers.neural.models import SoftmaxClassifier
from repro.parsers.vis.base import VisParser
from repro.sql.analyzer import is_valid
from repro.vis.lint.gate import VisLintGate
from repro.vis.vql import CHART_TYPES, VQLQuery, parse_vql


class RGVisNetParser(VisParser):
    """See module docstring."""

    name = "rgvisnet parser"
    stage = "neural"
    year = 2022

    def __init__(
        self, seed: int = 0, lint_gate: VisLintGate | None = None
    ) -> None:
        self.lint_gate = lint_gate
        self.config = FeatureConfig()  # graph features on (relation-aware)
        self.backbone = GrammarNeuralParser(
            config=self.config,
            name="rgvisnet backbone",
            year=2022,
            seed=seed,
        )
        self.chart_head = SoftmaxClassifier(
            self.config.dim, len(CHART_TYPES), seed=seed
        )
        self.codebase: list[tuple[set[str], str]] = []
        self.trained = False

    # ------------------------------------------------------------------
    def train(
        self,
        examples: list[Example],
        databases: dict[str, Database],
    ) -> None:
        sql_examples = []
        features = []
        labels = []
        for example in examples:
            if example.vql is None:
                continue
            db = databases.get(example.db_id)
            if db is None:
                continue
            try:
                vql = parse_vql(example.vql)
            except ReproError:
                continue
            sql_examples.append(example)
            features.append(question_vector(example.question, self.config))
            labels.append(CHART_TYPES.index(vql.chart_type))
            skeleton = _delexicalize(example.vql, db)
            if skeleton is not None:
                self.codebase.append(
                    (_token_profile(example.question), skeleton)
                )
        if features:
            self.chart_head.fit(np.stack(features), np.array(labels))
        self.backbone.train(sql_examples, databases)
        self.trained = True

    # ------------------------------------------------------------------
    def parse_vis(self, request: ParseRequest) -> VQLQuery | None:
        if not self.trained:
            return None
        chart_type = CHART_TYPES[
            self.chart_head.predict(
                question_vector(request.question, self.config)
            )
        ]
        result = self.backbone.parse(request)
        if self.lint_gate is not None:
            return self._gated(chart_type, result, request)
        if result.query is not None and is_valid(
            result.query, request.schema
        ):
            return self.assemble_vql(chart_type, result.query)
        # recovery path: retrieve and revise a skeleton
        revised = self._retrieve_and_revise(request)
        if revised is not None:
            return revised
        if result.query is not None:
            return self.assemble_vql(chart_type, result.query)
        return None

    def _gated(
        self, chart_type, result, request: ParseRequest
    ) -> VQLQuery | None:
        """Gate-ranked variant: generation and recovery candidates compete.

        Candidates keep the ungated priority order (valid generation,
        revised skeleton, raw generation), so with a silent gate or when
        every candidate is pruned the answer matches the ungated path.
        """
        candidates: list[VQLQuery] = []
        if result.query is not None and is_valid(
            result.query, request.schema
        ):
            candidates.append(self.assemble_vql(chart_type, result.query))
        revised = self._retrieve_and_revise(request)
        if revised is not None and revised not in candidates:
            candidates.append(revised)
        if result.query is not None:
            raw = self.assemble_vql(chart_type, result.query)
            if raw not in candidates:
                candidates.append(raw)
        if not candidates:
            return None
        decision = self.lint_gate.decide(
            candidates, request.schema, db=request.db
        )
        if decision.chosen is not None:
            return decision.chosen
        return candidates[0]

    def _retrieve_and_revise(
        self, request: ParseRequest
    ) -> VQLQuery | None:
        if not self.codebase:
            return None
        profile = _token_profile(request.question)
        best = max(self.codebase, key=lambda e: _overlap(profile, e[0]))
        if _overlap(profile, best[0]) < 0.2:
            return None
        filled = self._fill_skeleton(best[1], request)
        if filled is None:
            return None
        try:
            vql = parse_vql(filled)
        except ReproError:
            return None
        if not is_valid(vql.query, request.schema):
            return None
        return vql

    def _fill_skeleton(self, skeleton: str, request: ParseRequest) -> str | None:
        """Re-ground a delexicalized skeleton in the current schema."""
        question = request.question
        schema = request.schema
        main = self.backbone._predict_table(question, schema)

        slots: dict[str, str | None] = {"<TABLE>": main.name.lower()}
        cat = self.backbone._predict_column(
            question, schema, main, "group",
            type_filter=(ColumnType.TEXT, ColumnType.DATE),
        )
        slots["<CAT>"] = (
            cat[1].name.lower()
            if cat is not None and cat[0].name.lower() == main.name.lower()
            else None
        )
        num = self.backbone._predict_column(
            question, schema, main, "agg",
            type_filter=(ColumnType.NUMBER,),
        )
        slots["<NUM>"] = (
            num[1].name.lower()
            if num is not None and num[0].name.lower() == main.name.lower()
            else None
        )
        col = self.backbone._predict_column(
            question, schema, main, "projection"
        )
        slots["<COL>"] = (
            col[1].name.lower()
            if col is not None and col[0].name.lower() == main.name.lower()
            else None
        )

        out = skeleton
        for slot, value in slots.items():
            if slot in out:
                if value is None:
                    return None
                out = out.replace(slot, value)
        return out


# ----------------------------------------------------------------------
def _token_profile(question: str) -> set[str]:
    return set(re.findall(r"[a-z']+", question.lower()))


def _overlap(a: set[str], b: set[str]) -> float:
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def _delexicalize(vql_text: str, db: Database) -> str | None:
    """Replace schema identifiers in a VQL string with typed slots.

    Only single-table VQLs delexicalize cleanly (multi-table skeletons
    would need join slots); others return None and are covered only by the
    generation path — matching RGVisNet's codebase curation.
    """
    try:
        parse_vql(vql_text)
    except ReproError:
        return None
    text = vql_text
    table_names = sorted(
        (t.schema.name for t in db.tables.values()), key=len, reverse=True
    )
    used_tables = [
        name for name in table_names if name.lower() in text.lower()
    ]
    if len(used_tables) != 1:
        return None
    table = db.table(used_tables[0])
    text = re.sub(
        re.escape(used_tables[0]), "<TABLE>", text, flags=re.IGNORECASE
    )
    for column in table.schema.columns:
        if column.name.lower() not in text.lower():
            continue
        if column.type is ColumnType.NUMBER:
            slot = "<NUM>"
        elif column.type is ColumnType.TEXT:
            slot = "<CAT>"
        else:
            slot = "<COL>"
        text = re.sub(
            r"\b" + re.escape(column.name) + r"\b",
            slot,
            text,
            flags=re.IGNORECASE,
        )
    return text
