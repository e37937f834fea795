"""The unified natural language interface (survey Fig. 1 and Section 2).

``NaturalLanguageInterface`` is the library's front door: one object over
a database that answers both data questions (Text-to-SQL) and chart
requests (Text-to-Vis) through the Fig. 1 workflow — input, preprocessing,
translation to a functional representation, execution, presentation, and
a feedback loop, over the production stack :func:`build_pipeline` builds.
:mod:`repro.core.registry` catalogs the framework's
components (Fig. 3) so benchmarks and docs can enumerate them.
"""

from repro.core.interface import NaturalLanguageInterface, build_pipeline
from repro.core.pipeline import (
    GateDecision,
    LintGate,
    Pipeline,
    PipelineTrace,
    VisGateDecision,
    VisLintGate,
)
from repro.core.registry import (
    approach_registry,
    dataset_registry,
    metric_registry,
    system_registry,
)

__all__ = [
    "GateDecision",
    "LintGate",
    "VisGateDecision",
    "VisLintGate",
    "NaturalLanguageInterface",
    "Pipeline",
    "PipelineTrace",
    "approach_registry",
    "build_pipeline",
    "dataset_registry",
    "metric_registry",
    "system_registry",
]
