"""Scheduler as a service: the long-running ``repro-sched serve`` daemon.

The subsystem (docs/SERVICE.md has the full tour):

* :mod:`repro.service.protocol` — the length-prefixed JSON wire format:
  versioned request/response schemas, the closed set of structured error
  codes, framing that stays synchronized across malformed payloads;
* :mod:`repro.service.server` — the asyncio daemon: bounded admission
  queue with load-shedding, per-request deadlines, worker-crash
  recovery on one long-lived ``WorkerPool``, graceful SIGTERM drain
  with checkpointing, heartbeat/metrics telemetry via :mod:`repro.obs`;
* :mod:`repro.service.handlers` — worker-side request execution (pure,
  picklable, never raises — the malformed-request isolation contract);
* :mod:`repro.service.client` — the blocking client behind
  ``repro-sched call``, with typed retryable/permanent errors;
* :mod:`repro.service.smoke` — the supervised ``make serve-smoke``
  battery: injected crashes, hangs, malformed frames, floods, drain.

The daemon mirrors Uberun's master/daemon/protocol split: the event loop
is the master owning admission and deadlines, and each request executes
in a worker process so a crash or hang stays contained.
"""

from .client import (
    RetryableServiceError,
    ServiceClient,
    ServiceError,
    locate_service,
)
from .protocol import (
    ERROR_CODES,
    METHODS,
    PROTOCOL_VERSION,
    RETRYABLE_CODES,
    ProtocolError,
    Request,
)
from .server import SchedulerService, ServiceConfig, serve

__all__ = [
    "PROTOCOL_VERSION",
    "METHODS",
    "ERROR_CODES",
    "RETRYABLE_CODES",
    "ProtocolError",
    "Request",
    "ServiceClient",
    "ServiceError",
    "RetryableServiceError",
    "locate_service",
    "SchedulerService",
    "ServiceConfig",
    "serve",
]
