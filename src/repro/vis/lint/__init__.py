"""Static analysis for visualization queries (VQL).

The runtime chart builder (:func:`repro.vis.spec.build_spec`) discovers an
invalid chart — a non-numeric scatter axis, a non-temporal BIN column, a
one-column projection — only *after* executing the SQL.  This package
moves those checks to parse time, mirroring :mod:`repro.sql.lint`'s
engine/diagnostics/rules layout and the candidate-pruning gates that
nvBench-style Text-to-Vis systems apply to discard malformed DV queries
before execution.  Three layers:

1. **SQL diagnostics** — the inner data query runs through the full
   :mod:`repro.sql.lint` engine, so every ``E``/``W``/``I`` SQL finding
   also appears in the vis report;
2. **output-schema typing** — :mod:`repro.sql.typer` derives each result
   column's name, type, and nullability statically;
3. **vis rules** — the ``V``-code catalog validates chart arity, per-chart
   encoding/type compatibility, BIN-column existence and temporality, pie
   slice cardinality (via :mod:`repro.sql.stats` NDV estimates), and
   duplicate/swapped-axis hazards.

Code ranges: ``V0xx`` structural, ``V1xx`` type, ``V2xx`` semantic,
``V3xx`` style.  Entry points: :func:`lint_vis` (a parsed
:class:`~repro.vis.vql.VQLQuery`), :func:`lint_vql_text` (a VQL string;
parse failures become ``V001``; what the CLI lints), :class:`VisLintGate`
(pruning of parsed candidates), and the ``python -m repro vis-lint`` CLI.
"""

from repro.vis.lint.engine import VisLintReport, lint_vis, lint_vql_text
from repro.vis.lint.gate import VisGateDecision, VisLintGate
from repro.vis.lint.rules import VIS_RULES, VisRule, VisRuleContext, vis_rule

__all__ = [
    "VIS_RULES",
    "VisGateDecision",
    "VisLintGate",
    "VisLintReport",
    "VisRule",
    "VisRuleContext",
    "lint_vis",
    "lint_vql_text",
    "vis_rule",
]
