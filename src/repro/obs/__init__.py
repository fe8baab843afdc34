"""Structured observability for the I/O-model reproduction.

Three layers, importable independently:

- :mod:`repro.obs.metrics` -- a standalone registry of named
  counters/gauges; the library itself counts each event on the object
  that owns it and writes nothing here.
- :mod:`repro.obs.spans` -- nested spans attributing every physical
  read/write/alloc to a logical phase via the ``BlockStore`` /
  ``BufferPool`` observer hook points.
- :mod:`repro.obs.export` -- versioned JSON + markdown exporters and
  the ``compare`` regression gate used by ``tools/bench_report.py``
  and CI.
"""

from repro.obs.export import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    CompareResult,
    GateDiff,
    SchemaError,
    bench_payload,
    compare,
    load_bench_json,
    make_result,
    to_markdown,
    validate_payload,
    write_bench_json,
)
from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    counter,
    format_key,
    gauge,
)
from repro.obs.spans import Span, SpanRecorder, span

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "CompareResult",
    "Counter",
    "DEFAULT_REGISTRY",
    "Gauge",
    "GateDiff",
    "MetricsRegistry",
    "SchemaError",
    "Span",
    "SpanRecorder",
    "bench_payload",
    "compare",
    "counter",
    "format_key",
    "gauge",
    "load_bench_json",
    "make_result",
    "span",
    "to_markdown",
    "validate_payload",
    "write_bench_json",
]
