"""LLM-prompted Text-to-Vis parsers (Chat2VIS and NL2INTERFACE lineage).

Chat2VIS prompts a code LLM zero-shot with the schema and the chart
request; NL2INTERFACE prepares few-shot examples mapping questions to VQL
before prompting.  Both run against the simulated LLM with ``task="vis"``
prompts, whose completions are VQL programs.

Both parsers accept a :class:`~repro.vis.lint.VisLintGate`: with
``n_candidates > 1`` they sample several completions and let the gate's
static diagnostics pick the cleanest — the self-consistency idea with a
static verifier instead of majority voting.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.datasets.base import Example
from repro.errors import ReproError
from repro.llm.interface import SimulatedLLM
from repro.llm.profiles import ModelProfile
from repro.llm.prompts import PromptBuilder, extract_vql
from repro.parsers.base import ParseRequest
from repro.parsers.vis.base import VisParser
from repro.vis.lint.gate import VisLintGate
from repro.vis.vql import VQLQuery, normalize_vql_query, parse_vql


class Chat2VisParser(VisParser):
    """Zero-shot LLM visualization prompting."""

    name = "chat2vis parser"
    stage = "llm"
    year = 2023

    def __init__(
        self,
        model: str | ModelProfile = "codex-like",
        seed: int = 0,
        clear_prompting: bool = True,
        n_candidates: int = 1,
        lint_gate: VisLintGate | None = None,
    ) -> None:
        self.llm = SimulatedLLM(model, seed=seed)
        self.clear_prompting = clear_prompting
        self.n_candidates = n_candidates
        self.lint_gate = lint_gate

    def _builder(self) -> PromptBuilder:
        return PromptBuilder(
            include_schema=True,
            include_descriptions=self.clear_prompting,
            include_foreign_keys=self.clear_prompting,
            task="vis",
        )

    def parse_vis(self, request: ParseRequest) -> VQLQuery | None:
        prompt = self._build_prompt(request)
        # multiple candidates only differ at nonzero sampling temperature
        temperature = 0.7 if self.n_candidates > 1 else 0.0
        completions = self.llm.complete(
            prompt, temperature=temperature, n=self.n_candidates
        )
        candidates: list[VQLQuery] = []
        for completion in completions:
            try:
                vql = normalize_vql_query(
                    parse_vql(extract_vql(completion.text))
                )
            except ReproError:
                continue
            if vql not in candidates:
                candidates.append(vql)
        if not candidates:
            return None
        if self.lint_gate is not None:
            decision = self.lint_gate.decide(
                candidates, request.schema, db=request.db
            )
            if decision.chosen is not None:
                return decision.chosen
        return candidates[0]

    def _build_prompt(self, request: ParseRequest) -> str:
        from repro.sql.unparser import to_sql

        history = [
            (question, to_sql(query)) for question, query in request.history
        ]
        return self._builder().build(
            question=request.question,
            schema=request.schema,
            knowledge=request.knowledge,
            history=history or None,
        )


class NL2InterfaceParser(Chat2VisParser):
    """Few-shot LLM visualization prompting with retrieved demonstrations."""

    name = "nl2interface parser"
    stage = "llm"
    year = 2022

    def __init__(
        self,
        model: str | ModelProfile = "codex-like",
        seed: int = 0,
        num_demos: int = 4,
        clear_prompting: bool = True,
    ) -> None:
        super().__init__(model, seed, clear_prompting)
        self.num_demos = num_demos
        self.pool: list[tuple[str, str]] = []

    def train(
        self,
        examples: list[Example],
        databases: dict[str, Database],
    ) -> None:
        self.pool = [
            (e.question, e.vql) for e in examples if e.vql is not None
        ]

    def _build_prompt(self, request: ParseRequest) -> str:
        question_tokens = set(request.question.lower().split())

        def similarity(pair: tuple[str, str]) -> float:
            tokens = set(pair[0].lower().split())
            union = question_tokens | tokens
            return len(question_tokens & tokens) / len(union) if union else 0

        demos = sorted(self.pool, key=similarity, reverse=True)[
            : self.num_demos
        ]
        return self._builder().build(
            question=request.question,
            schema=request.schema,
            demonstrations=demos or None,
            knowledge=request.knowledge,
        )
