"""Zero-dependency Prometheus-style metrics for the service plane.

The operations story needs numbers, not logs: ingest rate, per-shard
progress, WAL fsync latency, snapshot age.  This module is a small,
stdlib-only implementation of the three Prometheus instrument kinds --
:class:`Counter`, :class:`Gauge`, :class:`Histogram` -- plus a
:class:`MetricsRegistry` that renders them in the Prometheus *text
exposition format* (version 0.0.4), so a stock Prometheus server can
scrape ``GET /metrics`` off the HTTP plane with no client library
installed on either side.

Design constraints, in order:

1. **Hot-path cost.**  Instrumented ingest must keep >=98% of
   uninstrumented throughput (gated by ``benchmarks/bench_http.py
   --check``), so the write-side operations are one lock acquisition and
   a float add.  Values that are already tracked by the service
   (shard counters, WAL byte counts, snapshot versions) are *not* mirrored
   on the hot path at all -- they are registered as **callbacks** read
   once per scrape (:meth:`MetricsRegistry.register_callback`).
2. **Thread safety.**  Connection threads, snapshot tickers, the WAL
   flusher and HTTP scrapes all touch the registry concurrently; every
   instrument guards its cells with its own lock, and ``render()`` takes
   consistent per-instrument snapshots.
3. **No dependencies.**  Everything here is stdlib, matching the rest of
   the service plane (``http.server``, no prometheus_client).

Naming follows the Prometheus conventions: counters end in ``_total``,
latencies are ``_seconds`` histograms, and label cardinality is bounded
by construction (shard ids and route patterns, never raw paths or
tokens).

:func:`parse_exposition` is the inverse of ``render()`` for the sample
lines -- the test tier uses it to assert *metric accuracy* (scraped
counters equal acked ingest totals), and operators can use it to spot
check a scrape without a Prometheus install.
"""

from __future__ import annotations

# repro-lint: hot-path

import math
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "render_value",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Default histogram buckets for latencies, in seconds.  Tuned for the
#: service's range: WAL fsyncs sit in the 0.1-10ms band, checkpoints and
#: snapshot refreshes in the 1ms-1s band.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)

#: Default buckets for size-ish distributions (ingest batch sizes).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    1,
    8,
    64,
    256,
    1_024,
    4_096,
    8_192,
    16_384,
    65_536,
)

_LabelValues = tuple[str, ...]


def render_value(value: float) -> str:
    """One sample value in exposition syntax (``+Inf`` spelling included)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values, strict=True)
    )
    return "{" + pairs + "}"


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or any(ch not in _NAME_OK for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Instrument:
    """Shared label-family plumbing for the three instrument kinds.

    An instrument without ``labelnames`` is its own single cell; with
    labelnames it is a family whose cells are created on first
    :meth:`labels` call.  Cell state lives in ``_cells`` keyed by the
    label-value tuple (the empty tuple for the unlabelled cell).
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames: tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._lock = threading.Lock()
        self._cells: dict[_LabelValues, Any] = {}
        if not self.labelnames:
            self._cells[()] = self._new_cell()

    # -- cell management ------------------------------------------------ #

    def _new_cell(self) -> Any:
        raise NotImplementedError

    def _cell(self, label_values: _LabelValues) -> Any:
        with self._lock:
            cell = self._cells.get(label_values)
            if cell is None:
                cell = self._new_cell()
                self._cells[label_values] = cell
            return cell

    def labels(self, *values: Any, **kwargs: Any) -> Any:
        """The child cell for one label-value combination."""
        if kwargs:
            if values:
                raise ValueError("pass label values either positionally or by name")
            try:
                values = tuple(kwargs[name] for name in self.labelnames)
            except KeyError as error:
                raise ValueError(f"missing label {error} for {self.name}") from error
            if len(kwargs) != len(self.labelnames):
                extra = set(kwargs) - set(self.labelnames)
                raise ValueError(f"unknown labels {sorted(extra)} for {self.name}")
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label values, "
                f"got {len(values)}"
            )
        return _BoundCell(self, self._cell(tuple(str(value) for value in values)))

    def _unlabelled(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"{self.name} has labels {list(self.labelnames)}; use .labels(...)"
            )
        return self._cells[()]

    # -- rendering ------------------------------------------------------ #

    def _sample_lines(self) -> list[str]:
        raise NotImplementedError

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        lines.extend(self._sample_lines())
        return "\n".join(lines)


class _BoundCell:
    """A labelled child: delegates the write API onto one cell."""

    __slots__ = ("_instrument", "_cell")

    def __init__(self, instrument: "_Instrument", cell: Any) -> None:
        self._instrument = instrument
        self._cell = cell

    def inc(self, amount: float = 1.0) -> None:
        self._instrument._inc_cell(self._cell, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._instrument._inc_cell(self._cell, -amount)

    def set(self, value: float) -> None:
        self._instrument._set_cell(self._cell, value)

    def observe(self, value: float) -> None:
        self._instrument._observe_cell(self._cell, value)

    @property
    def value(self) -> float:
        return self._instrument._read_cell(self._cell)


class Counter(_Instrument):
    """A monotonically increasing count (``_total`` by convention)."""

    kind = "counter"

    def _new_cell(self) -> list[float]:
        return [0.0]

    def _inc_cell(self, cell: list[float], amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        with self._lock:
            cell[0] += amount

    def _read_cell(self, cell: list[float]) -> float:
        with self._lock:
            return cell[0]

    def inc(self, amount: float = 1.0) -> None:
        self._inc_cell(self._unlabelled(), amount)

    @property
    def value(self) -> float:
        return self._read_cell(self._unlabelled())

    def _sample_lines(self) -> list[str]:
        with self._lock:
            cells = [(values, cell[0]) for values, cell in self._cells.items()]
        return [
            f"{self.name}{_format_labels(self.labelnames, values)} "
            f"{render_value(count)}"
            for values, count in sorted(cells)
        ]


class Gauge(_Instrument):
    """A value that can go up and down (depths, versions, ages)."""

    kind = "gauge"

    def _new_cell(self) -> list[float]:
        return [0.0]

    def _inc_cell(self, cell: list[float], amount: float) -> None:
        with self._lock:
            cell[0] += amount

    def _set_cell(self, cell: list[float], value: float) -> None:
        with self._lock:
            cell[0] = float(value)

    def _read_cell(self, cell: list[float]) -> float:
        with self._lock:
            return cell[0]

    def inc(self, amount: float = 1.0) -> None:
        self._inc_cell(self._unlabelled(), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._inc_cell(self._unlabelled(), -amount)

    def set(self, value: float) -> None:
        self._set_cell(self._unlabelled(), value)

    @property
    def value(self) -> float:
        return self._read_cell(self._unlabelled())

    def _sample_lines(self) -> list[str]:
        with self._lock:
            cells = [(values, cell[0]) for values, cell in self._cells.items()]
        return [
            f"{self.name}{_format_labels(self.labelnames, values)} "
            f"{render_value(value)}"
            for values, value in sorted(cells)
        ]


class _HistogramCell:
    __slots__ = ("counts", "total", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets  # per-bucket (non-cumulative) counts
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """A distribution with cumulative buckets, ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        bounds = [float(bound) for bound in buckets]
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:], strict=False)):
            raise ValueError(f"buckets must be non-empty and increasing, got {buckets}")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # the +Inf bucket is implicit
        self.buckets: tuple[float, ...] = tuple(bounds)
        super().__init__(name, help, labelnames)

    def _new_cell(self) -> _HistogramCell:
        # +1 for the implicit +Inf bucket.
        return _HistogramCell(len(self.buckets) + 1)

    def _observe_cell(self, cell: _HistogramCell, value: float) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            cell.counts[index] += 1
            cell.total += value
            cell.count += 1

    def _read_cell(self, cell: _HistogramCell) -> float:
        with self._lock:
            return cell.total

    def observe(self, value: float) -> None:
        self._observe_cell(self._unlabelled(), value)

    @property
    def count(self) -> int:
        cell = self._unlabelled()
        with self._lock:
            return cell.count

    @property
    def total(self) -> float:
        return self._read_cell(self._unlabelled())

    def _sample_lines(self) -> list[str]:
        with self._lock:
            cells = [
                (values, list(cell.counts), cell.total, cell.count)
                for values, cell in self._cells.items()
            ]
        lines = []
        for values, counts, total, count in sorted(cells):
            cumulative = 0
            # counts has one extra entry (the implicit +Inf bucket), so the
            # shorter buckets sequence bounds the zip.
            for bound, bucket_count in zip(self.buckets, counts, strict=False):
                cumulative += bucket_count
                bucket_labels = _format_labels(
                    (*self.labelnames, "le"), (*values, render_value(bound))
                )
                lines.append(f"{self.name}_bucket{bucket_labels} {cumulative}")
            inf_labels = _format_labels((*self.labelnames, "le"), (*values, "+Inf"))
            lines.append(f"{self.name}_bucket{inf_labels} {count}")
            plain = _format_labels(self.labelnames, values)
            lines.append(f"{self.name}_sum{plain} {render_value(total)}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines


#: A callback yields ``(labels-dict-or-None, value)`` samples at scrape time.
CallbackFn = Callable[[], Iterable[tuple[dict[str, str] | None, float]]]


class _Callback:
    """A lazily-evaluated family: sampled only when ``render()`` runs.

    The right shape for values the service already tracks (shard counters,
    WAL counters, snapshot age): zero hot-path cost, always-current at
    scrape time.  A raising callback is reported through the registry's
    ``repro_metrics_scrape_errors_total`` counter instead of breaking the
    whole scrape.
    """

    def __init__(self, name: str, help: str, kind: str, fn: CallbackFn) -> None:
        self.name = _check_name(name)
        self.help = help
        if kind not in ("counter", "gauge"):
            raise ValueError(f"callback kind must be counter or gauge, got {kind!r}")
        self.kind = kind
        self.fn = fn

    def render(self) -> str:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, value in self.fn():
            if labels:
                # Callback-supplied labels are the one path where names
                # arrive at scrape time rather than registration time, so
                # validate here; a bad name raises and is counted in
                # repro_metrics_scrape_errors_total by the registry.
                names = tuple(_check_name(label) for label in labels.keys())
                values = tuple(str(v) for v in labels.values())
            else:
                names, values = (), ()
            lines.append(
                f"{self.name}{_format_labels(names, values)} "
                f"{render_value(float(value))}"
            )
        return "\n".join(lines)


class MetricsRegistry:
    """All of one service's instruments, rendered as one scrape.

    Getters are idempotent: asking twice for the same name returns the
    same instrument (so independently-wired components can share a family,
    e.g. the HTTP plane's request counter), while a name collision across
    *kinds* raises -- that is always a bug.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> tokens = registry.counter("ingest_tokens_total", "Tokens acked.")
    >>> tokens.inc(3)
    >>> "ingest_tokens_total 3" in registry.render()
    True
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, Any] = {}
        self._order: list[str] = []
        self.scrape_errors = Counter(
            "repro_metrics_scrape_errors_total",
            "Metric callbacks that raised during a scrape.",
        )
        self._register("repro_metrics_scrape_errors_total", self.scrape_errors)

    def _register(self, name: str, family: Any) -> Any:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not type(family) or getattr(
                    existing, "kind", None
                ) != getattr(family, "kind", None):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{getattr(existing, 'kind', type(existing).__name__)}"
                    )
                return existing
            self._families[name] = family
            self._order.append(name)
            return family

    # -- constructors ---------------------------------------------------- #

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._register(name, Counter(name, help, labelnames))

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(name, Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(name, Histogram(name, help, buckets, labelnames))

    def register_callback(
        self, name: str, help: str, kind: str, fn: CallbackFn
    ) -> None:
        """Register a scrape-time sample source (see :class:`_Callback`)."""
        self._register(name, _Callback(name, help, kind, fn))

    def unregister(self, name: str) -> None:
        """Drop a family (used when a component detaches from the service)."""
        with self._lock:
            if name in self._families:
                del self._families[name]
                self._order.remove(name)

    def get(self, name: str) -> Any | None:
        with self._lock:
            return self._families.get(name)

    # -- scraping -------------------------------------------------------- #

    def render(self) -> str:
        """The full exposition-format payload for ``GET /metrics``."""
        with self._lock:
            families = [
                self._families[name]
                for name in self._order
                if self._families[name] is not self.scrape_errors
            ]
        sections = []
        for family in families:
            try:
                sections.append(family.render())
            # repro-lint: boundary scrape rendering; counted in repro_scrape_errors_total
            except Exception:
                # One broken callback must not take down the whole scrape;
                # the error count itself is part of the scrape, which is
                # why the error counter renders last.
                self.scrape_errors.inc()
        sections.append(self.scrape_errors.render())
        return "\n".join(sections) + "\n"


def parse_exposition(text: str) -> dict[str, dict[tuple[tuple[str, str], ...], float]]:
    """Parse exposition text into ``{name: {sorted-label-items: value}}``.

    The inverse of :meth:`MetricsRegistry.render` for sample lines (HELP /
    TYPE comments are skipped).  Raises :class:`ValueError` on a malformed
    sample line, which is what the format-validity tests lean on.
    """
    samples: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line {line!r}")
        labels: dict[str, str] = {}
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"malformed label block in {line!r}")
            name, _, label_blob = name_part.partition("{")
            blob = label_blob[:-1]
            index = 0
            while index < len(blob):
                eq = blob.index("=", index)
                label_name = blob[index:eq]
                if not blob.startswith('"', eq + 1):
                    raise ValueError(f"unquoted label value in {line!r}")
                cursor = eq + 2
                chars: list[str] = []
                while True:
                    ch = blob[cursor]
                    if ch == "\\":
                        nxt = blob[cursor + 1]
                        chars.append(
                            {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, "\\" + nxt)
                        )
                        cursor += 2
                    elif ch == '"':
                        cursor += 1
                        break
                    else:
                        chars.append(ch)
                        cursor += 1
                labels[_check_name(label_name)] = "".join(chars)
                if cursor < len(blob):
                    if blob[cursor] != ",":
                        raise ValueError(f"malformed label separator in {line!r}")
                    cursor += 1
                index = cursor
        else:
            name = name_part
        _check_name(name)
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        elif value_part == "NaN":
            value = math.nan
        else:
            value = float(value_part)  # raises ValueError on garbage
        samples.setdefault(name, {})[tuple(sorted(labels.items()))] = value
    return samples
