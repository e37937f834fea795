"""Base interface for Text-to-Vis parsers.

A Vis parser maps a :class:`~repro.parsers.base.ParseRequest` to a
parsed VQL program (a :class:`~repro.vis.vql.VQLQuery`, whose text is
``VISUALIZE <TYPE> <SQL>``) or ``None`` on failure.  The program stays
typed through the lint gate and the renderer; text is produced once, for
display, with :func:`~repro.vis.vql.to_vql`.  The shared helpers cover
chart-type keyword detection — every surveyed system, from DataTone to
Chat2VIS, reads the requested chart type off surface cues — and VQL
assembly.
"""

from __future__ import annotations

import abc

from repro.data.database import Database
from repro.datasets.base import Example
from repro.parsers.base import ParseRequest
from repro.sql.ast import Query
from repro.vis.vql import VQLQuery

#: chart-type keyword table (mirrors the NLG lexicon's chart phrases)
_CHART_KEYWORDS: tuple[tuple[str, str], ...] = (
    ("scatter", "scatter"),
    ("pie", "pie"),
    ("proportion", "pie"),
    ("line", "line"),
    ("trend", "line"),
    ("bar", "bar"),
)


def detect_chart_type(question: str, default: str = "bar") -> str:
    """Read the requested chart type off the question's surface cues."""
    lowered = question.lower()
    for keyword, chart_type in _CHART_KEYWORDS:
        if keyword in lowered:
            return chart_type
    if "points plotting" in lowered or "comparing" in lowered:
        return "scatter"
    return default


class VisParser(abc.ABC):
    """Base class for all Text-to-Vis parsers."""

    name: str = "vis parser"
    stage: str = "traditional"
    year: int = 2015

    @abc.abstractmethod
    def parse_vis(self, request: ParseRequest) -> VQLQuery | None:
        """Translate the request's question into a VQL program."""

    def train(
        self,
        examples: list[Example],
        databases: dict[str, Database],
    ) -> None:
        """Fit on training examples (no-op for rule/LLM parsers)."""
        del examples, databases

    @staticmethod
    def assemble_vql(chart_type: str, query: Query) -> VQLQuery:
        return VQLQuery(chart_type=chart_type.lower(), query=query)
