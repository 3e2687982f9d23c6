"""Monitor-as-a-service: a long-running async checking server.

Everything else in the package is batch CLI — synthesize, check,
exit.  :mod:`repro.serve` keeps the expensive part (synthesizing and
optimizing a compiled/vector monitor bank) resident in one process and
multiplexes many concurrent trace streams through it over a tiny
newline-delimited JSON protocol, with bounded-memory backpressure per
stream and health/metrics endpoints for the ops loop.

Layering (one module per concern):

* :mod:`repro.serve.protocol` — wire framing: request decoding,
  response encoding, payload validation, size limits;
* :mod:`repro.serve.metrics` — process-wide counters and the
  ``/health`` / ``/metrics`` snapshots;
* :mod:`repro.serve.session` — one live stream: a
  :class:`~repro.trace.streaming.StreamingChecker` behind a bounded
  chunk queue with a draining worker task;
* :mod:`repro.serve.server` — the asyncio front end: connection
  handling, op dispatch, HTTP health endpoints, lifecycle.
"""

from repro import _lazy_exports

_lazy_exports(__name__, {
    "repro.serve.metrics": ("ServeMetrics",),
    "repro.serve.protocol": (
        "MAX_LINE_BYTES", "decode_request", "encode_message",
    ),
    "repro.serve.server": ("MonitorService", "ServeConfig"),
    "repro.serve.session": ("StreamSession",),
})

__all__ = [
    "MAX_LINE_BYTES",
    "MonitorService",
    "ServeConfig",
    "ServeMetrics",
    "StreamSession",
    "decode_request",
    "encode_message",
]
