"""The unified NLI facade.

``NaturalLanguageInterface`` is the library's quickstart object: point it
at a database, ask questions in natural language, get executed data or
rendered charts back, and keep asking follow-ups — the complete Fig. 1
loop in one class.  The default translation stack is the grammar semantic
parser (fast, deterministic); pass ``model=`` to run on the simulated LLM
stack instead.  :func:`build_pipeline` is the one place that stack is
built: ``repro.serve`` serves it, ``python -m repro eval`` scores its SQL
parser, and the benchmarks time it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.database import Database
from repro.core.pipeline import LintGate, Pipeline, PipelineTrace, VisLintGate
from repro.parsers.base import Parser
from repro.parsers.llm.strategies import MultiStageLLMParser
from repro.parsers.semantic import GrammarSemanticParser
from repro.parsers.vis.base import VisParser, detect_chart_type
from repro.parsers.vis.llm import Chat2VisParser
from repro.resilience import ResiliencePolicy
from repro.sql.ast import Query


@dataclass
class Answer:
    """A user-level answer: either data rows or a chart."""

    trace: PipelineTrace

    @property
    def ok(self) -> bool:
        return self.trace.succeeded

    @property
    def sql(self) -> str | None:
        return self.trace.sql

    @property
    def vql(self) -> str | None:
        return self.trace.vql

    @property
    def rows(self) -> list[tuple]:
        return self.trace.result.rows if self.trace.result else []

    @property
    def columns(self) -> list[str]:
        return self.trace.result.columns if self.trace.result else []

    @property
    def chart(self):
        return self.trace.chart

    @property
    def degraded(self) -> list[str]:
        """Degradation-ladder rungs taken this turn (empty when healthy)."""
        return self.trace.degraded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.trace.chart is not None:
            return f"<Answer chart {self.trace.chart.chart_type}>"
        if self.trace.result is not None:
            return f"<Answer {len(self.rows)} row(s)>"
        return f"<Answer error={self.trace.error!r}>"


class _DefaultVisParser(VisParser):
    """Semantic parser + chart-cue detection, the default Vis stack."""

    name = "default vis parser"

    def __init__(self, sql_parser: GrammarSemanticParser) -> None:
        self._parser = sql_parser

    def parse_vis(self, request):
        result = self._parser.parse(request)
        if result.query is None:
            return None
        return self.assemble_vql(
            detect_chart_type(request.question), result.query
        )


def build_pipeline(
    model: str | None = None,
    lint: bool = False,
    resilience: "ResiliencePolicy | bool | None" = None,
) -> Pipeline:
    """The production stack, built here and nowhere else.

    No *model*: the grammar semantic parser (world knowledge, fuzzy
    linking, history, external knowledge) and the semantic vis parser
    over it; a *model* name: the simulated-LLM stack.  ``lint=True``
    inserts both lint-gate stages (SQL, then VQL with the vis rule
    catalog); ``resilience=True`` runs turns under the stock
    :class:`ResiliencePolicy` (deadlines, retries, breakers, degradation
    ladders — DESIGN.md §Resilience), or pass a tuned policy.
    """
    if model is None:
        sql_parser: Parser = GrammarSemanticParser(
            world_knowledge=True,
            fuzzy=True,
            use_history=True,
            use_knowledge=True,
        )
        vis_parser: VisParser = _DefaultVisParser(sql_parser)
    else:
        sql_parser = MultiStageLLMParser(model=model)
        vis_parser = Chat2VisParser(model=model)
    if resilience is True:
        resilience = ResiliencePolicy.default()
    elif resilience is False:
        resilience = None
    return Pipeline(
        sql_parser,
        vis_parser,
        lint_gate=LintGate() if lint else None,
        vis_lint_gate=VisLintGate() if lint else None,
        resilience=resilience,
    )


class NaturalLanguageInterface:
    """Ask a database questions in natural language; see module docstring
    (*model*, *lint*, *resilience*: see :func:`build_pipeline`)."""

    def __init__(
        self,
        db: Database,
        model: str | None = None,
        knowledge: str | None = None,
        lint: bool = False,
        resilience: "ResiliencePolicy | bool | None" = None,
    ) -> None:
        self.db = db
        self.knowledge = knowledge
        self.pipeline = build_pipeline(model, lint=lint, resilience=resilience)
        self.history: list[tuple[str, Query]] = []

    def ask(self, question: str) -> Answer:
        """One turn: data question or chart request, context-aware.

        An answered data question joins :attr:`history` as the
        ``(question, Query)`` pair the pipeline executed.
        """
        return Answer(
            trace=self.pipeline.run(
                question,
                self.db,
                knowledge=self.knowledge,
                history=self.history,
            )
        )

    def reset(self) -> None:
        """Forget the conversation so far."""
        self.history.clear()
