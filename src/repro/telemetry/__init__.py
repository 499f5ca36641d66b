"""Observability: spans, metrics, run reports, table rendering.

One package owns every instrumentation seam of the repository:

- :mod:`.tracer` — span-based :class:`Tracer` with a shared wall-clock
  origin, ASCII Figure-1 rendering and Chrome trace-event export;
- :mod:`.metrics` — :class:`MetricsRegistry` of labelled counters, gauges,
  histograms and timers with thread-safe merge semantics — the one
  counting channel (sampler arena allocations, slice bytes, pinned-pool
  and pipeline events all land here);
- :mod:`.report` — :class:`RunReport`, the machine-readable per-run JSON
  artifact validated by ``benchmarks/check_bench_json.py``;
- :mod:`.monitor` — :class:`ProbeSampler`, the continuous-monitoring
  background thread sampling queue depths / pool occupancy / cache hit
  rates into fixed-size :class:`ProbeRing` series;
- :mod:`.attribution` — bottleneck attribution: blocking shares, lane
  utilization and the prep-/transfer-/compute-bound verdict
  (``python -m repro diagnose report.json``);
- :mod:`.sentinel` — the perf-regression sentinel comparing fresh
  ``BENCH_*.json`` artifacts against committed baselines;
- :mod:`.tables` — the table/bar renderers every bench prints through.
"""

from .attribution import (
    Attribution,
    attribute_breakdown,
    attribute_report,
    attribute_trace,
    render_attribution,
)
from .metrics import (
    Counter,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .monitor import DEFAULT_PROBE_INTERVAL, ProbeRing, ProbeSampler
from .report import RunReport, collect_environment
from .tables import format_bar_chart, format_seconds, format_table
from .tracer import STAGE_GLYPHS, TraceEvent, Tracer, render_timeline

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "RunReport",
    "collect_environment",
    "ProbeSampler",
    "ProbeRing",
    "DEFAULT_PROBE_INTERVAL",
    "Attribution",
    "attribute_breakdown",
    "attribute_trace",
    "attribute_report",
    "render_attribution",
    "Tracer",
    "TraceEvent",
    "render_timeline",
    "STAGE_GLYPHS",
    "format_table",
    "format_seconds",
    "format_bar_chart",
]
