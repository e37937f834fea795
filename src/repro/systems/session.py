"""Interactive multi-turn sessions (the feedback loop of Fig. 1).

``InteractiveSession`` wraps any system with conversation state: each
answered query's (question, SQL) pair becomes history for the next turn,
so follow-ups ("now only the ones whose ...") resolve against context —
the SParC/CoSQL interaction pattern.  ``refine`` implements the Fig. 1
feedback edge: the user reacts to an answer, and the reaction is treated
as the next turn.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.data.database import Database
from repro.errors import SQLError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.sql import rescache as _rescache
from repro.sql.ast import Query
from repro.sql.parser import parse_sql
from repro.systems.base import NLISystem, SystemResponse

_registry = _obs_metrics.get_registry()
_TURNS = _registry.counter("repro.session.turns")
_TURN_CACHE_HITS = _registry.counter("repro.session.turn_cache.hits")
_DEGRADED_TURNS = _registry.counter("repro.session.degraded.turns")

#: per-session bound on memoized turns
_TURN_MEMO_MAX = 64


def _copy_response(response: SystemResponse) -> SystemResponse:
    """A :class:`SystemResponse` sharing no mutable state with *response*.

    The turn memo stores and replays copies (same discipline as
    ``rescache.copy_result`` / ``Pipeline._replay_trace``) so callers
    mutating a returned response's result rows or chart cannot poison
    the memo or alias other transcript entries.
    """
    return response.copy()


@dataclass
class InteractiveSession:
    """Conversation state over one database for one system."""

    system: NLISystem
    db: Database
    knowledge: str | None = None
    history: list[tuple[str, Query]] = field(default_factory=list)
    transcript: list[SystemResponse] = field(default_factory=list)
    _turn_memo: "OrderedDict[tuple, SystemResponse]" = field(
        default_factory=OrderedDict, repr=False
    )
    _closed: bool = field(default=False, repr=False)

    def ask(self, question: str) -> SystemResponse:
        """One conversational turn.

        Increments ``repro.session.turns``; with tracing enabled the turn
        runs inside a ``repro.session.turn`` span annotated with the turn
        index and whether the system answered.

        Turns reuse the result-cache substrate at two levels: the
        underlying system's SQL executions hit :mod:`repro.sql.rescache`
        directly, and the session additionally memoizes whole turns —
        re-asking a question under the same conversation state against an
        unmutated database replays the previous
        :class:`~repro.systems.base.SystemResponse`
        (``repro.session.turn_cache.hits``) while still appending to the
        transcript and history exactly like a fresh turn.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        _TURNS.inc()
        if _obs_trace._ENABLED:
            with _obs_trace.span(
                "repro.session.turn", turn=len(self.transcript)
            ) as turn_span:
                response = self._ask_impl(question, memo_key=None)
                turn_span.set_attr("answered", response.answered)
            return response
        return self._ask_impl(question, memo_key=self._memo_key(question))

    def _memo_key(self, question: str) -> tuple | None:
        """Turn-memo key, or None when the history holds unhashable
        entries."""
        try:
            return (
                question,
                self.knowledge,
                tuple(self.history),
                _rescache.database_state_token(self.db),
            )
        except TypeError:
            return None

    def _ask_impl(self, question: str, memo_key: tuple | None) -> SystemResponse:
        response = None
        if memo_key is not None:
            cached = self._turn_memo.get(memo_key)
            if cached is not None:
                self._turn_memo.move_to_end(memo_key)
                _TURN_CACHE_HITS.inc()
                response = _copy_response(cached)
        if response is None:
            response = self.system.answer(
                question,
                self.db,
                knowledge=self.knowledge,
                history=list(self.history),
            )
            if response.is_degraded:
                # surface the degradation honestly in the transcript —
                # the answer stands, but the user is told how it was made
                _DEGRADED_TURNS.inc()
                note = f"[degraded: {', '.join(response.degraded)}]"
                response.message = (
                    f"{response.message} {note}".strip()
                    if response.message
                    else note
                )
            if memo_key is not None and not response.is_degraded:
                # stash a private copy: the caller owns the returned
                # response and may mutate it freely.  Degraded turns are
                # never memoized — a fallback answer must not outlive
                # the incident that caused it.
                self._turn_memo[memo_key] = _copy_response(response)
                while len(self._turn_memo) > _TURN_MEMO_MAX:
                    self._turn_memo.popitem(last=False)
        self.transcript.append(response)
        if response.answered and response.sql:
            try:
                self.history.append((question, parse_sql(response.sql)))
            except SQLError:
                pass
        return response

    def refine(self, feedback: str) -> SystemResponse:
        """The Fig. 1 feedback edge: refine the previous answer."""
        return self.ask(feedback)

    def reset(self) -> None:
        self.history.clear()
        self.transcript.clear()

    def close(self) -> None:
        """Release everything the session retains: history, transcript,
        and the turn memo.

        ``reset`` starts the *conversation* over but keeps the memo warm
        for re-asked questions; ``close`` is for ending the session's
        lifetime — the serving layer's idle-eviction sweep
        (:meth:`repro.serve.sessions.SessionRegistry.evict_idle`) calls
        it so long-running servers do not accumulate per-session memos.
        A closed session answers no further questions.
        """
        self.reset()
        self._turn_memo.clear()
        self._closed = True
