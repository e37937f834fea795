"""Span recording around the public entry points of each layer.

The benchmark never turns on :mod:`repro.obs` tracing: with it on,
``execute()``, the pipeline turn memo and the session memo bypass their
caches, so a traced run would measure a different program.  Instead
:class:`Tracer` wraps functions and methods from the outside, replacing
each one under every name it is looked up by (``repro.core.pipeline``
binds ``execute``, ``to_sql``, ``render_chart`` and ``parse_vql`` at
import, so patching the defining module alone would miss those calls).

A span is ``[name, start, end, parent, request_id]``.  Spans live in one
list per thread, in memory, and :meth:`Tracer.spans` merges them at the
end.  Direct workloads tag a turn with :meth:`Tracer.begin`; on the
served path the worker thread does not know the request it runs, so its
spans stay untagged until ``Ticket._resolve`` — wrapped too — tags
everything the thread recorded since the previous resolution.
"""

from __future__ import annotations

import gzip
import importlib
import json
import re
import statistics
import sys
import threading
import time

from common import self_times

#: (module, attribute) of plain functions, wrapped wherever imported
FUNCTIONS = (
    ("repro.sql.executor", "execute"),
    ("repro.sql.rescache", "cached_execute"),
    ("repro.sql.rescache", "copy_result"),
    ("repro.sql.plan", "plan_for"),
    ("repro.sql.unparser", "to_sql"),
    ("repro.sql.parser", "parse_sql"),
    ("repro.vis.vql", "parse_vql"),
    ("repro.vis.charts", "render_chart"),
    ("repro.vis.spec", "build_spec"),
)

#: (module, class, method) wrapped on the class
METHODS = (
    ("repro.core.interface", "NaturalLanguageInterface", "ask"),
    ("repro.core.pipeline", "Pipeline", "run"),
    ("repro.core.pipeline", "LintGate", "decide"),
    ("repro.vis.lint.gate", "VisLintGate", "decide"),
    ("repro.parsers.semantic", "GrammarSemanticParser", "parse"),
    ("repro.core.interface", "_DefaultVisParser", "parse_vis"),
    ("repro.parsers.vis.rule", "DataToneVisParser", "parse_vis"),
    ("repro.sql.plan", "CompiledPlan", "run"),
    ("repro.systems.session", "InteractiveSession", "ask"),
    ("repro.serve.server", "Server", "submit"),
    ("repro.serve.envelope", "Ticket", "_resolve"),
)

#: layers made of several entry points; a call nested inside another
#: member of its own layer is not counted again
GROUPS = {
    "translate": frozenset((
        "GrammarSemanticParser.parse",
        "_DefaultVisParser.parse_vis",
        "DataToneVisParser.parse_vis",
    )),
    "lint": frozenset(("LintGate.decide", "VisLintGate.decide")),
}


_CORRELATED = re.compile(r"\bs\d+ correlated\b")


class Tracer:
    """Records spans around wrapped callables; see module docstring."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lists: list[list] = []
        self._lists_lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        #: (request_id, stage records, cached flag) per Pipeline.run
        self.pipeline_runs: list[tuple] = []
        #: (request_id, examined, pruned) per lint-gate decision
        self.lint_decisions: list[tuple] = []
        #: every CompiledPlan handed out by plan_for, by identity
        self.plans: dict[int, tuple] = {}

    # -- recording -----------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            local.rid = None
            local.untagged = 0
            with self._lists_lock:
                self._lists.append(local.spans)
            return local.spans, local.stack

    def begin(self, request_id) -> None:
        """Tag spans this thread records from now on with *request_id*."""
        self._state()
        self._local.rid = request_id

    def _tag_pending(self, request_id) -> None:
        """Tag this thread's untagged spans since the last call."""
        spans, _ = self._state()
        for record in spans[self._local.untagged:]:
            if record[4] is None:
                record[4] = request_id
        self._local.untagged = len(spans)

    def wrap(self, name: str, fn, on_result=None):
        clock = self._clock
        state = self._state
        local = self._local

        def traced(*args, **kwargs):
            spans, stack = state()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, local.rid]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(record, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
        hooks = {
            "Pipeline.run": self._on_pipeline_run,
            "LintGate.decide": self._on_decision,
            "VisLintGate.decide": self._on_decision,
            "plan_for": self._on_plan,
            "Server.submit": self._on_submit,
        }
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(attr, original, hooks.get(attr))
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if getattr(module, attr, None) is original:
                    self._set(module, attr, wrapped)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            name = f"{cls_name}.{attr}"
            original = cls.__dict__[attr]
            if name == "Ticket._resolve":
                wrapped = self._wrap_resolve(original)
            else:
                wrapped = self.wrap(name, original, hooks.get(name))
            self._set(cls, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_resolve(self, original):
        inner = self.wrap("Ticket._resolve", original)

        def resolve(ticket, response):
            # the resolving thread ran this request's turn: its spans
            # since the previous resolution belong to this request
            self._tag_pending(ticket.request.request_id)
            return inner(ticket, response)

        return resolve

    # -- result hooks --------------------------------------------------
    def _on_pipeline_run(self, record, args, trace) -> None:
        stages = [(s.stage, s.seconds) for s in trace.stages]
        self.pipeline_runs.append((record, stages, trace.cached))

    def _on_decision(self, record, args, decision) -> None:
        self.lint_decisions.append(
            (record, decision.examined, len(decision.pruned))
        )

    def _on_plan(self, record, args, plan) -> None:
        db = args[2] if len(args) > 2 else None
        self.plans.setdefault(id(plan), (plan, db))

    def _on_submit(self, record, args, ticket) -> None:
        record[4] = ticket.request.request_id

    # -- output --------------------------------------------------------
    def write(self, path: str) -> int:
        """Write every span as one gzipped JSON line; returns the count.

        Times are seconds from the first span's start; ``parent`` indexes
        the line of the parent span (-1 for a root).
        """
        spans = self.spans()
        origin = min((s[1] for s in spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, rid in spans:
                out.write(json.dumps({
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "request": rid,
                }) + "\n")
        return len(spans)

    def spans(self) -> list[list]:
        """Every span, parents re-indexed into one merged list."""
        merged: list[list] = []
        with self._lists_lock:
            lists = list(self._lists)
        for spans in lists:
            offset = len(merged)
            for name, start, end, parent, rid in spans:
                merged.append(
                    [name, start, end,
                     parent + offset if parent >= 0 else -1, rid]
                )
        return merged


STAGES = ("preprocess", "translate", "lint", "execute", "present")

#: entry points whose own time excludes the named direct children
OWN_TIME = {
    "cached_execute": frozenset(("plan_for", "CompiledPlan.run", "copy_result")),
}


def _per_turn(tracer: Tracer, turn_ids: list) -> dict:
    """``{request_id: {key: value}}`` from the recorded spans and hooks.

    Keys: ``calls.<name>``/``time.<name>`` for each entry point (a call
    nested in a call of the same entry point is not counted again),
    ``time.<layer>`` for :data:`GROUPS`, ``own.<name>`` for
    :data:`OWN_TIME`, ``stage.<stage>`` and ``stages`` from uncached
    ``Pipeline.run`` traces, ``runs``/``cached``, and lint counts.
    """
    spans = tracer.spans()
    turns: dict = {rid: {} for rid in turn_ids}

    def add(rid, key, value):
        bucket = turns.get(rid)
        if bucket is not None:
            bucket[key] = bucket.get(key, 0.0) + value

    above: list[frozenset] = []
    for name, start, end, parent, _rid in spans:
        # parents precede children in each thread's list, so one pass
        # sees every ancestor first
        above.append(
            frozenset() if parent < 0
            else above[parent] | {spans[parent][0]}
        )
    own = self_times(
        [(start, end, parent) for _name, start, end, parent, _rid in spans],
        subtract=[
            parent >= 0 and name in OWN_TIME.get(spans[parent][0], ())
            for name, _start, _end, parent, _rid in spans
        ],
    )
    for index, (name, start, end, _parent, rid) in enumerate(spans):
        if name in above[index]:
            continue
        duration = end - start
        add(rid, "calls." + name, 1)
        add(rid, "time." + name, duration)
        if name in OWN_TIME:
            add(rid, "own." + name, own[index])
        for group, members in GROUPS.items():
            if name in members and not above[index] & members:
                add(rid, "time." + group, duration)
    for record, stages, cached in tracer.pipeline_runs:
        rid = record[4]
        add(rid, "runs", 1)
        if cached:
            add(rid, "cached", 1)
            continue  # a replayed trace carries the original's timings
        for stage, seconds in stages:
            add(rid, "stage." + stage, seconds)
        add(rid, "stages", sum(seconds for _, seconds in stages))
    for record, examined, pruned in tracer.lint_decisions:
        add(record[4], "lint.examined", examined)
        add(record[4], "lint.pruned", pruned)
    return turns


def layer_metrics(tracer: Tracer, turn_ids: list, turn_span: str) -> dict:
    """The span-derived per-layer metrics of one traced pass, as
    ``{name: (value, samples)}``.

    Times are medians, in µs, over the turns in which the layer ran;
    ``*_per_turn`` are means over all turns; *turn_span* names the entry
    point whose duration is one turn.
    """
    turns = list(_per_turn(tracer, turn_ids).values())
    count = len(turns)

    def median_of(values: list, scale: float = 1.0) -> tuple:
        if not values:
            return 0.0, 0
        return statistics.median(values) * scale, len(values)

    def med_us(key: str) -> tuple:
        return median_of([t[key] for t in turns if key in t], 1e6)

    def per_turn(key: str) -> tuple:
        return sum(t.get(key, 0.0) for t in turns) / max(1, count), count

    def ratio(part: str, whole: str) -> tuple:
        total = sum(t.get(whole, 0.0) for t in turns)
        hits = sum(t.get(part, 0.0) for t in turns)
        return (hits / total if total else 0.0), int(total)

    turn_key = "time." + turn_span
    out = {}
    for stage in STAGES:
        key = "stage." + stage
        out[f"pipeline.{stage}_us"] = med_us(key)
        out[f"pipeline.{stage}_share"] = median_of(
            [t[key] / t[turn_key] for t in turns
             if key in t and t.get(turn_key)]
        )
    out["pipeline.glue_us"] = median_of(
        [t[turn_key] - t["stages"] for t in turns
         if "stages" in t and turn_key in t], 1e6
    )
    out["pipeline.memo_hit_ratio"] = ratio("cached", "runs")
    out["parsers.parse_us"] = med_us("time.translate")
    out["sql.to_sql_calls_per_turn"] = per_turn("calls.to_sql")
    out["sql.parse_sql_calls_per_turn"] = per_turn("calls.parse_sql")
    out["vis.parse_vql_calls_per_turn"] = per_turn("calls.parse_vql")
    out["lint.decide_us"] = med_us("time.lint")
    decided = [t["lint.examined"] for t in turns if "lint.examined" in t]
    out["lint.candidates_per_turn"] = (
        (sum(decided) / len(decided), len(decided)) if decided else (0.0, 0)
    )
    out["lint.pruned_ratio"] = ratio("lint.pruned", "lint.examined")
    out["rescache.overhead_us"] = med_us("own.cached_execute")
    out["rescache.copy_us"] = med_us("time.copy_result")
    out["plan.compile_us"] = med_us("time.plan_for")
    out["plan.run_us"] = med_us("time.CompiledPlan.run")
    out["vis.render_us"] = med_us("time.render_chart")
    out["vis.spec_us"] = med_us("time.build_spec")
    out["trace.spans_per_turn"] = (
        len(tracer.spans()) / max(1, count), count
    )
    return out


def plan_figures(tracer: Tracer) -> dict:
    """Compile-time figures over every distinct plan the pass used, as
    ``{name: (value, samples)}``: plans with a correlated subquery (from
    an untimed ``explain()``) and the vectorizer's fallback share of
    eligible operators."""
    correlated = 0
    vector_ops = fallbacks = 0
    for plan, _db in tracer.plans.values():
        if _CORRELATED.search(plan.explain()):
            correlated += 1
        meta = plan.describe()
        vector_ops += meta.get("vector_ops", 0)
        fallbacks += meta.get("vector_fallbacks", 0)
    eligible = vector_ops + fallbacks
    plans = len(tracer.plans)
    return {
        "plan.correlated_queries": (correlated, plans),
        "vector.fallback_ratio": (
            fallbacks / eligible if eligible else 0.0, eligible
        ),
    }
