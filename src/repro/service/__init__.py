"""On-demand recompilation as a service.

The paper's engine answers one caller at a time; a fuzzing fleet wants a
long-lived compile server.  This package wraps :class:`repro.core.engine.Odin`
in one, structured like an inference server:

* :mod:`repro.service.jobs` — request queue; concurrent probe-change
  requests per target are **batched** and **deduplicated** (one rebuild,
  one compile per dirty fragment, no matter how many clients asked).
* :mod:`repro.service.workers` — **parallel fragment compile pool**
  (serial / thread / process); independent fragments of a batch no
  longer serialize behind the worst one.
* :mod:`repro.service.cache` — **persistent content-addressed code
  cache** keyed by hash(fragment IR + probe state + opt level); hits
  skip compilation, survive restarts, and are shared across clients.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  service facade and the handle fuzzers hold instead of calling
  ``Odin.rebuild()`` directly.
* observability — the shared :class:`repro.obs.metrics.MetricsRegistry`
  (queue depth, batch size, cache hit rate, per-stage latency
  percentiles) and a shared :class:`repro.obs.tracer.Tracer`:
  every rebuild's span tree nests under the dispatcher's
  ``service.batch`` span, exportable with ``--trace-out`` /
  ``repro trace --service``.
"""

from repro.service.cache import (
    InMemoryCodeCache,
    PersistentCodeCache,
    fragment_content_key,
)
from repro.service.client import ServiceClient
from repro.service.jobs import (
    CompileRequest,
    DeadlineExpiredError,
    Job,
    ProbeOp,
    QueueFullError,
    ServiceReply,
)
from repro.obs.metrics import MetricsRegistry, format_stats
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
    SupervisedCompiler,
)
from repro.service.server import RecompilationService, ServiceError
from repro.service.workers import (
    MODE_PROCESS,
    MODE_SERIAL,
    MODE_THREAD,
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
    make_compiler,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "CompileRequest",
    "DeadlineExpiredError",
    "InMemoryCodeCache",
    "Job",
    "MODE_PROCESS",
    "MODE_SERIAL",
    "MODE_THREAD",
    "MetricsRegistry",
    "PersistentCodeCache",
    "ProbeOp",
    "QueueFullError",
    "RecompilationService",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "ServiceReply",
    "SupervisedCompiler",
    "WorkerCrashError",
    "WorkerError",
    "WorkerTimeoutError",
    "fragment_content_key",
    "format_stats",
    "make_compiler",
]
