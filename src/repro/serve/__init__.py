"""`repro.serve`: an async micro-batching front for the sensing engine.

The simulation core answers one question at a time: "what does this radar
see in this scene?" Production-scale evaluation asks that question millions
of times — GAN-in-the-loop training, parameter sweeps, many tenants sharing
one simulation host. This package turns the core into a *service*:

- :class:`SenseRequest` / :class:`SenseResponse` — the request/response
  shapes (scene + radar config + seed in; result + serving telemetry out).
- :class:`MicroBatcher` — the pure pull-based batching policy.
- :mod:`repro.serve.engine` — fused multi-request execution on the
  batched synthesis/receive kernels, re-running requests alone when a
  batch fails.
- :class:`SenseService` — the asyncio scheduler: bounded admission,
  deadlines, worker pool, fault isolation.
- :class:`InProcessClient` — a synchronous facade for non-async callers.
- :class:`MetricsRegistry` — counters/gauges/histograms with JSON export.
- :class:`SessionStore` / :class:`TrackRequest` — long-lived tracking
  sessions: per-session incremental tracker state with idle eviction and
  exact checkpoint/restore (``repro.serve.session``).

Served results are bitwise identical to direct ``FmcwRadar.sense`` calls
with the same parameters, regardless of arrival order or batch grouping —
``tests/test_serve_service.py`` pins this.
"""

from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.client import InProcessClient
from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serve.request import (
    BACKEND_NAIVE_FALLBACK,
    BACKEND_VECTORIZED,
    BatchKey,
    SenseRequest,
    SenseResponse,
    TrackRequest,
    TrackResponse,
    TrackSnapshot,
)
from repro.serve.service import SenseService, ServiceConfig
from repro.serve.session import SessionConfig, SessionStore, TrackingSession

__all__ = [
    "BACKEND_NAIVE_FALLBACK",
    "BACKEND_VECTORIZED",
    "BATCH_SIZE_BUCKETS",
    "Batch",
    "BatchKey",
    "Counter",
    "Gauge",
    "Histogram",
    "InProcessClient",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "MicroBatcher",
    "SenseRequest",
    "SenseResponse",
    "SenseService",
    "ServiceConfig",
    "SessionConfig",
    "SessionStore",
    "TrackRequest",
    "TrackResponse",
    "TrackSnapshot",
    "TrackingSession",
]
