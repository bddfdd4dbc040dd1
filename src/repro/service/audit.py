"""Live accuracy auditing: observed error vs the theoretical envelope.

The service's entire value proposition is the k-tail residual guarantee
(Definition 2), with the constants each snapshot carries: the shards' own
``(A, B)``, since every key is answered by its owner shard.  The metrics
plane makes throughput and latency observable; this module makes the
*guarantee* observable: is the summary actually inside its error bound
right now?

The trick is that exactness over a substream is cheap.  Sampling is
**deterministic by item identity**: a token is audited iff a mixed form
of its stable 64-bit fingerprint falls below a threshold
(``splitmix64(fingerprint) < rate·2^64``; the mix matters because raw
codec fingerprints are identity for integer tokens).
Membership is a property of the item, not the occurrence, so an audited
item has *every one of its occurrences* mirrored into an exact
``Counter`` — its mirrored count equals its true frequency, and

    ``|snapshot.estimate(item) - exact[item]|``

is exactly the paper's per-item error ``delta_i``.  A uniform
per-occurrence sample could never make that claim.

The theoretical envelope is evaluated conservatively from the same
mirror: ``F1_res(k) <= N - (sum of the k largest audited exact
counts)``, because the true top-k mass is at least the top-k mass of
any subset.  Plugging that residual upper bound into the snapshot's
constants yields a bound that is *at least* the true bound,
which gives ``repro_error_budget_ratio`` (observed max error / bound)
a one-sided alert semantics: ratio >= 1 is a *certain* guarantee
violation (never a sampling artifact), while a violation smaller than
the residual slack can go unnoticed — the differential-oracle test
tier covers exactness offline.  Alerting on the ratio is thus a scrape
rule with no false positives, not a postmortem.

Memory is bounded adaptively: when the mirror exceeds ``max_items`` the
threshold halves and items above it are pruned.  Halving preserves the
membership-is-prefix property (a surviving item was sampled from the
very first occurrence), so surviving counts stay exact.

One honest limitation: the mirror starts empty at process start.  After
a WAL recovery the estimator carries replayed history the mirror never
saw, so every comparison would be skewed; the service therefore disables
the auditor when it restores non-empty state (documented in the README
runbook).
"""

from __future__ import annotations

# repro-lint: hot-path

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.algorithms.base import Item
from repro.engine.codec import EncodedChunk
from repro.service.snapshots import Snapshot

__all__ = ["AccuracyAuditor", "AuditReport", "DEFAULT_AUDIT_RATE"]

DEFAULT_AUDIT_RATE = 1.0 / 64.0
DEFAULT_AUDIT_MAX_ITEMS = 65_536
DEFAULT_AUDIT_INTERVAL = 5.0

_FULL_SCALE = 1 << 64

# splitmix64 finalizer constants.  Codec fingerprints are *identity* for
# integer tokens (by design -- shard placement stays easy to reason
# about), so thresholding them directly would sample "all small ints"
# rather than a uniform ``rate`` fraction.  Mixing first makes the
# sampled population uniform for every token type while staying a pure,
# deterministic function of the item's stable fingerprint.
_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def _mix_fingerprints(fps: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer (uint64 in, uint64 out)."""
    z = fps.astype(np.uint64, copy=True)
    z += _MIX_GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX_M1
    z ^= z >> np.uint64(27)
    z *= _MIX_M2
    z ^= z >> np.uint64(31)
    return z

# Quantiles exported as repro_observed_error{quantile="..."}; "1.0" is
# the max, following the summary-metric convention.
REPORT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 1.0)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (q in (0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass(frozen=True)
class AuditReport:
    """One comparison of the live snapshot against the exact mirror."""

    snapshot_version: int
    snapshot_stream_length: float
    items_audited: int
    sampled_weight: float
    observed_weight: float
    sample_rate: float
    observed_error: dict[float, float]  # quantile -> |estimate - exact|
    residual_upper: float
    bound: float | None
    budget_ratio: float | None
    topk_checked: int
    topk_max_error: float
    generated_at: float = field(default_factory=time.time)

    def as_dict(self) -> dict[str, Any]:
        return {
            "snapshot_version": self.snapshot_version,
            "snapshot_stream_length": self.snapshot_stream_length,
            "items_audited": self.items_audited,
            "sampled_weight": self.sampled_weight,
            "observed_weight": self.observed_weight,
            "sample_rate": self.sample_rate,
            "observed_error": {str(q): v for q, v in self.observed_error.items()},
            "residual_upper": self.residual_upper,
            "bound": self.bound,
            "budget_ratio": self.budget_ratio,
            "topk_checked": self.topk_checked,
            "topk_max_error": self.topk_max_error,
            "generated_at": self.generated_at,
        }


class AccuracyAuditor:
    """Deterministic hash-sampled exact mirror + bound comparison.

    ``observe_chunk`` sits on the ingest path (called under the server's
    ingest lock) and must stay cheap: one vectorized fingerprint
    comparison per chunk, and Python-level work only for the ~``rate``
    fraction of positions actually sampled.
    """

    def __init__(
        self,
        rate: float = DEFAULT_AUDIT_RATE,
        max_items: int = DEFAULT_AUDIT_MAX_ITEMS,
        interval: float = DEFAULT_AUDIT_INTERVAL,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"audit rate must be in (0, 1], got {rate}")
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        self.max_items = max_items
        self.interval = interval
        self._threshold = min(int(rate * _FULL_SCALE), _FULL_SCALE)
        self._counts: dict[Item, float] = {}
        self._fps: dict[Item, int] = {}
        self._observed_weight = 0.0
        self._sampled_weight = 0.0
        self._lock = threading.Lock()
        self._report: AuditReport | None = None
        self._report_monotonic = 0.0
        self._audit_lock = threading.Lock()

    @property
    def sample_rate(self) -> float:
        return self._threshold / _FULL_SCALE

    @property
    def items_audited(self) -> int:
        with self._lock:
            return len(self._counts)

    @property
    def sampled_weight(self) -> float:
        with self._lock:
            return self._sampled_weight

    # ------------------------------------------------------------------ #
    # Ingest side
    # ------------------------------------------------------------------ #

    def observe_chunk(self, chunk: EncodedChunk) -> int:
        """Mirror the sampled sub-population of one encoded chunk.

        Returns the number of positions mirrored (for tests; the hot
        path ignores it).
        """
        fps = _mix_fingerprints(chunk.fingerprints())
        index = (
            np.arange(len(fps))
            if self._threshold >= _FULL_SCALE
            else np.nonzero(fps < np.uint64(self._threshold))[0]
        )
        total = float(chunk.total_weight)
        if index.size == 0:
            with self._lock:
                self._observed_weight += total
            return 0
        ids = np.asarray(chunk.ids)[index]
        items = chunk.codec.decode(ids)
        weights = (
            np.asarray(chunk.weights, dtype=np.float64)[index]
            if chunk.weights is not None
            else None
        )
        sampled_fps = fps[index]
        with self._lock:
            self._observed_weight += total
            counts = self._counts
            fp_index = self._fps
            for position, item in enumerate(items):
                weight = 1.0 if weights is None else float(weights[position])
                counts[item] = counts.get(item, 0.0) + weight
                if item not in fp_index:
                    fp_index[item] = int(sampled_fps[position])
                self._sampled_weight += weight
            if len(counts) > self.max_items:
                self._shrink_locked()
        return int(index.size)

    def _shrink_locked(self) -> None:
        """Halve the threshold (pruning the mirror) until under budget.

        Halving keeps membership nested: every surviving item also
        satisfied every previous (larger) threshold, so its count has
        been mirrored since its first occurrence and remains exact.
        """
        while len(self._counts) > self.max_items and self._threshold > 1:
            self._threshold //= 2
            doomed = [
                item for item, fp in self._fps.items() if fp >= self._threshold
            ]
            for item in doomed:
                self._sampled_weight -= self._counts.pop(item)
                del self._fps[item]

    # ------------------------------------------------------------------ #
    # Audit side
    # ------------------------------------------------------------------ #

    def run_audit(self, snapshot: Snapshot) -> AuditReport:
        """Compare the snapshot's estimates against the exact mirror."""
        with self._lock:
            counts = dict(self._counts)
            sampled_weight = self._sampled_weight
            observed_weight = self._observed_weight
            rate = self.sample_rate
        errors: list[float] = []
        for item, exact in counts.items():
            errors.append(abs(snapshot.estimate(item) - exact))
        errors.sort()
        observed = {q: _quantile(errors, q) for q in REPORT_QUANTILES}
        # Conservative residual: true top-k mass >= top-k mass of any
        # subset, so N minus the audited top-k sum upper-bounds F1_res(k).
        top_counts = sorted(counts.values(), reverse=True)[: snapshot.k]
        total_weight = max(observed_weight, snapshot.stream_length)
        residual_upper = max(0.0, total_weight - sum(top_counts))
        bound: float | None = None
        ratio: float | None = None
        try:
            bound = snapshot.constants.bound(
                residual_upper, snapshot.estimator.num_counters, snapshot.k
            )
        except ValueError:
            bound = None  # vacuous regime (m <= B*k); nothing to ratio against
        observed_max = observed[1.0]
        if bound is not None:
            ratio = (
                observed_max / bound
                if bound > 0.0
                else (0.0 if observed_max == 0.0 else math.inf)
            )
        topk_errors = [
            abs(estimate - counts[item])
            for item, estimate in snapshot.top_k(snapshot.k)
            if item in counts
        ]
        report = AuditReport(
            snapshot_version=snapshot.version,
            snapshot_stream_length=snapshot.stream_length,
            items_audited=len(counts),
            sampled_weight=sampled_weight,
            observed_weight=observed_weight,
            sample_rate=rate,
            observed_error=observed,
            residual_upper=residual_upper,
            bound=bound,
            budget_ratio=ratio,
            topk_checked=len(topk_errors),
            topk_max_error=max(topk_errors, default=0.0),
        )
        with self._lock:
            self._report = report
            self._report_monotonic = time.monotonic()
        return report

    def report(
        self, snapshot: Snapshot | None, max_age: float | None = None
    ) -> AuditReport | None:
        """Scrape-side accessor: cached report, refreshed at most every
        ``interval`` seconds (never concurrently).

        Called from metrics scrape callbacks, so it must not block on a
        concurrent audit and must tolerate ``snapshot is None`` (nothing
        snapshotted yet).
        """
        budget = self.interval if max_age is None else max_age
        with self._lock:
            cached = self._report
            age = time.monotonic() - self._report_monotonic
        if cached is not None and age < budget:
            return cached
        if snapshot is None:
            return cached
        if not self._audit_lock.acquire(blocking=False):
            return cached  # another scrape is already auditing
        try:
            return self.run_audit(snapshot)
        finally:
            self._audit_lock.release()
