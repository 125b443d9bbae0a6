"""Observability: protocol tracing, request lifecycles, health, exporters.

The subsystem has four layers, all strictly passive — nothing in this
package ever schedules engine events, so enabling a trace can never
change cycle counts, event counts, or final memory:

* :mod:`repro.obs.trace` — a bounded ring buffer of typed
  :class:`TraceEvent` records fed by trace points threaded through the
  network, homes, TUs, L1 protocols, MSHRs and DRAM.  Components reach
  the recorder through ``self.engine.tracer`` (``None`` when tracing is
  off, which keeps the disabled hot path to a single attribute test).
* :mod:`repro.obs.spans` — the :class:`SpanCollector`, attached
  whenever tracing is on: it stitches events into per-request
  lifecycles keyed by ``req_id``, decomposes each request's latency
  into an exact partition of critical-path stages with top-K
  contended-line / shard / link rollups, and keeps the message-class
  x hop-class flight table behind the Figure 1 indirection count.
* :mod:`repro.obs.monitor` — the :class:`HealthMonitor`, the one
  epoch sampler: every scrape row carries live queue / MSHR / link /
  transport state plus a snapshot of the
  :class:`~repro.sim.stats.StatsRegistry` counters (the one metric
  store), and each scrape sets the :data:`GAUGES` families' last
  values and whole-run peaks.
* :mod:`repro.obs.export` / :mod:`repro.obs.prometheus` —
  Chrome/Perfetto trace-event JSON (counter tracks rendered from the
  monitor's scrape rows), a human-readable per-address timeline, the
  JSON health artifact, and Prometheus text exposition with a
  validating parser.
"""

from .export import (chrome_trace_events, format_timeline,
                     load_chrome_trace, prometheus_exposition,
                     telemetry_payload, validate_chrome_trace,
                     write_chrome_trace)
from .monitor import GAUGES, HealthMonitor, format_health
from .prometheus import (parse_prometheus_text, prometheus_text,
                         sanitize_metric_name, stats_samples)
from .spans import SPAN_STAGES, SpanCollector, decompose
from .trace import (INDIRECTION_HOPS, TraceEvent, TraceFilter,
                    TraceRecorder, hop_class)

__all__ = [
    "TraceEvent", "TraceFilter", "TraceRecorder", "hop_class",
    "INDIRECTION_HOPS",
    "GAUGES", "HealthMonitor", "format_health",
    "SpanCollector", "SPAN_STAGES", "decompose",
    "prometheus_text", "parse_prometheus_text", "stats_samples",
    "sanitize_metric_name", "prometheus_exposition", "telemetry_payload",
    "chrome_trace_events", "write_chrome_trace", "load_chrome_trace",
    "validate_chrome_trace", "format_timeline",
]
