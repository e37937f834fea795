"""Neural Text-to-Vis parsers (Seq2Vis and ncNet lineage).

Both parsers pair a trained chart-type classifier with a trained
Text-to-SQL backbone for the data query, exactly the VQL factorization the
surveyed systems use:

- :class:`Seq2VisParser` backs onto the single-table *sketch* parser —
  the seq2seq era could not compose joins or grouping reliably, which is
  why Seq2Vis' overall nvBench accuracy in Table 2 is near the floor;
- :class:`NcNetParser` backs onto the grammar parser without graph
  features (a transformer-class sequence model), landing in the middle of
  the nvBench column.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import Database
from repro.datasets.base import Example
from repro.errors import ReproError
from repro.parsers.base import ParseRequest
from repro.parsers.neural.features import FeatureConfig, question_vector
from repro.parsers.neural.grammar import GrammarNeuralParser
from repro.parsers.neural.models import SoftmaxClassifier
from repro.parsers.neural.sketch import SketchParser
from repro.parsers.vis.base import VisParser
from repro.vis.vql import CHART_TYPES, VQLQuery, parse_vql


class _NeuralVisParser(VisParser):
    """Shared training/inference for classifier + SQL-backbone parsers."""

    def __init__(self, backbone, config: FeatureConfig, seed: int = 0) -> None:
        self.backbone = backbone
        self.config = config
        self.chart_head = SoftmaxClassifier(
            config.dim, len(CHART_TYPES), seed=seed
        )
        self.trained = False

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
            try:
                vql = parse_vql(example.vql)
            except ReproError:
                continue
            sql_examples.append(example)
            features.append(question_vector(example.question, self.config))
            labels.append(CHART_TYPES.index(vql.chart_type))
        if features:
            self.chart_head.fit(np.stack(features), np.array(labels))
        # the backbone trains on (question, sql) pairs of the same examples
        self.backbone.train(sql_examples, databases)
        self.trained = True

    def parse_vis(self, request: ParseRequest) -> VQLQuery | None:
        if not self.trained:
            return None
        chart_index = self.chart_head.predict(
            question_vector(request.question, self.config)
        )
        chart_type = CHART_TYPES[chart_index]
        result = self.backbone.parse(request)
        if result.query is None:
            return None
        return self.assemble_vql(chart_type, result.query)


class Seq2VisParser(_NeuralVisParser):
    """Seq2seq-era Vis parser; see module docstring."""

    name = "seq2vis parser"
    stage = "neural"
    year = 2021

    def __init__(self, seed: int = 0) -> None:
        config = FeatureConfig(
            bigrams=False, context=False, graph=False, value_link=False
        )
        super().__init__(
            backbone=SketchParser(config=config, seed=seed),
            config=config,
            seed=seed,
        )


class NcNetParser(_NeuralVisParser):
    """Transformer-era Vis parser; see module docstring."""

    name = "ncnet parser"
    stage = "neural"
    year = 2022

    def __init__(self, seed: int = 0) -> None:
        # sequence model: no graph features and no relation-aware context —
        # those are exactly what RGVisNet's hybrid encoder adds on top
        config = FeatureConfig(graph=False, context=False)
        super().__init__(
            backbone=GrammarNeuralParser(
                config=config, name="ncnet backbone", year=2022, seed=seed
            ),
            config=config,
            seed=seed,
        )
