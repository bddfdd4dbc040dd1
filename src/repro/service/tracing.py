"""End-to-end request tracing for the heavy-hitters service.

Answers the question PR 6's aggregate metrics cannot: *where did this
request spend its time?*  A histogram tells you the p99 ingest latency
rose; a trace tells you it rose because ``wal_fsync`` went from 0.2 ms to
9 ms on one shaky disk.

Design constraints, in order:

1. **Zero dependencies.**  Trace/span identifiers follow the W3C Trace
   Context format (``traceparent: 00-<32 hex>-<16 hex>-<2 hex>``) so any
   downstream collector can adopt them, but nothing here imports one.
2. **Zero overhead when off.**  The hot ingest path carries a single
   ``trace`` local that is ``None`` for unsampled requests; every span
   site is guarded by ``if trace is not None`` — no context-manager
   allocation, no clock reads.
3. **Wire compatibility.**  The NDJSON protocol carries the context in
   an *optional* ``trace`` request field.  Protocol-2 servers ignore
   unknown request fields, so a tracing client degrades gracefully
   against an older server (it simply gets no ``trace`` block back);
   ``ping`` advertises ``"tracing": true`` so clients can introspect.

Sampling is probabilistic (``sample_rate``) with a force-sample escape
hatch (``?trace=1`` over HTTP, ``trace={"force": true}`` over NDJSON)
for interactive debugging.  Sampled traces land in a bounded ring
buffer (old traces fall off the back) exported via ``GET /v1/traces``.

A ``Trace`` is mutable on purpose: spans are appended as each stage
finishes and the ring holds the live object.  Shards apply each chunk
inline, so a sampled ingest's ``shard_apply`` spans are in the trace
before the ack, and a forced trace's inline breakdown covers the full
decode → admission → wal_append → shard_apply pipeline.
"""

from __future__ import annotations

# repro-lint: hot-path

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = [
    "TraceContext",
    "Trace",
    "Tracer",
    "parse_traceparent",
    "format_server_timing",
]

# W3C trace-context constants.  Only version 00 is emitted; any version
# other than the reserved "ff" is accepted (per spec, higher versions
# must parse as 00 plus ignorable extra fields).
_TRACEPARENT_VERSION = "00"
_TRACE_ID_LEN = 32
_SPAN_ID_LEN = 16

DEFAULT_RING_SIZE = 512
DEFAULT_SAMPLE_RATE = 0.01


def _new_trace_id() -> str:
    return os.urandom(_TRACE_ID_LEN // 2).hex()


def _new_span_id() -> str:
    return os.urandom(_SPAN_ID_LEN // 2).hex()


def _is_hex(value: str) -> bool:
    try:
        int(value, 16)
    except ValueError:
        return False
    return value == value.lower()


@dataclass(frozen=True)
class TraceContext:
    """Immutable (trace_id, span_id, sampled) triple.

    ``trace_id`` identifies the whole request journey; ``span_id`` the
    sender's span (the server records it as ``parent_span_id``).
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def new(cls, sampled: bool = True) -> TraceContext:
        return cls(trace_id=_new_trace_id(), span_id=_new_span_id(), sampled=sampled)

    def to_traceparent(self) -> str:
        flags = "01" if self.sampled else "00"
        return f"{_TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"


def parse_traceparent(header: Any) -> TraceContext | None:
    """Parse a W3C ``traceparent`` header; ``None`` on any malformation.

    Tolerant by design: a bad header from an arbitrary client must never
    fail the request, only fail to join the caller's trace.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if len(trace_id) != _TRACE_ID_LEN or not _is_hex(trace_id):
        return None
    if len(span_id) != _SPAN_ID_LEN or not _is_hex(span_id):
        return None
    if set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return TraceContext(trace_id=trace_id, span_id=span_id, sampled=sampled)


class Trace:
    """One sampled request: a context plus an append-only list of spans.

    Thread-safe appends: a ``/v1/traces`` scrape may export the trace
    while its handler thread is still adding spans.  Span durations are
    wall-independent (``perf_counter`` deltas measured by the recorder),
    so there is no cross-thread clock to reconcile.
    """

    __slots__ = (
        "context",
        "op",
        "forced",
        "parent_span_id",
        "started_wall",
        "duration_seconds",
        "error",
        "_spans",
        "_annotations",
        "_lock",
    )

    def __init__(
        self,
        op: str,
        context: TraceContext,
        forced: bool = False,
        parent_span_id: str | None = None,
    ) -> None:
        self.context = context
        self.op = op
        self.forced = forced
        self.parent_span_id = parent_span_id
        self.started_wall = time.time()
        self.duration_seconds: float | None = None
        self.error: str | None = None
        self._spans: list[dict[str, Any]] = []
        self._annotations: dict[str, Any] = {}
        self._lock = threading.Lock()

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def add_span(self, name: str, seconds: float, **attrs: Any) -> None:
        span: dict[str, Any] = {"name": name, "seconds": seconds}
        if attrs:
            span.update(attrs)
        with self._lock:
            self._spans.append(span)

    def annotate(self, **attrs: Any) -> None:
        with self._lock:
            self._annotations.update(attrs)

    def finish(self, duration_seconds: float) -> None:
        # Under the span lock: the trace ring can be exported (as_dict)
        # from another thread while the handler is still finishing.
        with self._lock:
            self.duration_seconds = duration_seconds

    def breakdown(self) -> dict[str, Any]:
        """Compact per-stage latency breakdown for the client response."""
        with self._lock:
            spans = [dict(span) for span in self._spans]
        payload: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "op": self.op,
            "spans": [
                {
                    "name": span.pop("name"),
                    "ms": round(span.pop("seconds") * 1000.0, 4),
                    **span,
                }
                for span in spans
            ],
        }
        if self.duration_seconds is not None:
            payload["total_ms"] = round(self.duration_seconds * 1000.0, 4)
        return payload

    def as_dict(self) -> dict[str, Any]:
        """Full record for the ``/v1/traces`` export."""
        with self._lock:
            spans = [dict(span) for span in self._spans]
            annotations = dict(self._annotations)
        record: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "op": self.op,
            "forced": self.forced,
            "started": self.started_wall,
            "finished": self.duration_seconds is not None,
            "spans": spans,
        }
        if self.parent_span_id is not None:
            record["parent_span_id"] = self.parent_span_id
        if self.duration_seconds is not None:
            record["duration_seconds"] = self.duration_seconds
        if self.error is not None:
            record["error"] = self.error
        if annotations:
            record["annotations"] = annotations
        return record


class Tracer:
    """Sampling decision + bounded ring buffer of recent traces.

    ``begin`` is the single hot-path entry point: one dict lookup and
    (for the common unsampled case) one ``random.random()`` call.
    """

    def __init__(
        self,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        self.sample_rate = sample_rate
        self._ring: deque = deque(maxlen=ring_size)
        self._lock = threading.Lock()
        self.started_total = 0
        self.forced_total = 0

    def begin(self, op: str, trace_request: Any = None) -> Trace | None:
        """Decide sampling for one request; return a ``Trace`` or ``None``.

        ``trace_request`` is the raw value of the request's optional
        ``trace`` field: absent/None (probabilistic sampling only), any
        truthy scalar (force), or a dict with optional ``force`` and
        ``traceparent`` keys.  An upstream ``traceparent`` whose sampled
        flag is set also forces sampling — the caller already committed
        to recording this journey.
        """
        forced = False
        parent: TraceContext | None = None
        if isinstance(trace_request, dict):
            forced = bool(trace_request.get("force"))
            parent = parse_traceparent(trace_request.get("traceparent"))
            if parent is not None and parent.sampled:
                forced = True
        elif trace_request:
            forced = True
        if not forced and random.random() >= self.sample_rate:
            return None
        if parent is not None:
            context = TraceContext(
                trace_id=parent.trace_id, span_id=_new_span_id(), sampled=True
            )
            parent_span_id = parent.span_id
        else:
            context = TraceContext.new()
            parent_span_id = None
        trace = Trace(op=op, context=context, forced=forced, parent_span_id=parent_span_id)
        with self._lock:
            self._ring.append(trace)
            self.started_total += 1
            if forced:
                self.forced_total += 1
        return trace

    def snapshot(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Export recent traces, most recent first."""
        with self._lock:
            traces = list(self._ring)
        traces.reverse()
        if limit is not None:
            traces = traces[: max(0, limit)]
        return [trace.as_dict() for trace in traces]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def format_server_timing(breakdown: dict[str, Any]) -> str:
    """Render a breakdown as a ``Server-Timing`` response header value.

    Browsers surface this in devtools for free; curl users read it raw.
    Span names are already metric-safe identifiers, so no escaping is
    needed beyond dropping any non-numeric attributes.
    """
    parts = [f"{span['name']};dur={span['ms']}" for span in breakdown.get("spans", [])]
    if "total_ms" in breakdown:
        parts.append(f"total;dur={breakdown['total_ms']}")
    return ", ".join(parts)
