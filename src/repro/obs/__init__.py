"""repro.obs — hierarchical tracing and run reporting.

Two stdlib-only cores (safe for the dependency-light engine layers to
import) plus analysis tooling:

- :mod:`repro.obs.trace` — spans, the ambient :class:`Tracer`,
  cross-thread context propagation.
- :mod:`repro.obs.sink` — durable ``trace.jsonl`` writer, readers, the
  Perfetto exporter and the CI schema validator.
- :mod:`repro.obs.report` — span trees, self/total attribution,
  stage-seconds reconstruction, live tailing.
"""

from .sink import (
    TRACE_FILENAME,
    TraceSink,
    export_perfetto,
    read_trace,
    to_perfetto,
    validate_spans,
)
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    active,
    span,
)
from .report import (
    SpanNode,
    aggregate,
    build_tree,
    coverage,
    follow_trace,
    render_hot_stages,
    render_tree,
    stage_totals,
)

__all__ = [
    "TRACE_FILENAME",
    "TraceSink",
    "export_perfetto",
    "read_trace",
    "to_perfetto",
    "validate_spans",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "active",
    "span",
    "SpanNode",
    "aggregate",
    "build_tree",
    "coverage",
    "follow_trace",
    "render_hot_stages",
    "render_tree",
    "stage_totals",
]
