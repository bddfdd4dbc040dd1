"""Exact counts kept by the load generator, and the answer checks.

Every answer the service gives carries its guarantee constants
``(A, B, k, m)``: each estimate must be within
``A * F1res(k) / (m - B*k)`` of the true count, where ``F1res(k)`` is the
stream weight outside the ``k`` largest true counts.  A top-k answer is
also checked for completeness: any key it leaves out must have a true
count no larger than the smallest returned estimate plus the bound.

A snapshot is a consistent cut per *shard*, not across shards: each
shard's copy covers a prefix of the chunks it was sent.  The checks
therefore rebuild the true counts of a snapshot from its
``shard_lengths``: the prefix of chunks whose per-shard token totals add
up to each shard's length.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.engine.vectorized import fingerprint_array, shard_array


class OracleError(RuntimeError):
    """A snapshot that no prefix of the acked stream can explain."""


def exact_counts(chunks: Sequence[np.ndarray], num_keys: int) -> np.ndarray:
    """Exact per-key counts of a chunk sequence.

    Timed chunks repeat (the pool is cycled), so the sequence is folded
    into one weighted ``bincount`` over its distinct arrays.
    """
    multiplicity: dict[int, list] = {}
    for chunk in chunks:
        entry = multiplicity.setdefault(id(chunk), [chunk, 0])
        entry[1] += 1
    if not multiplicity:
        return np.zeros(num_keys)
    arrays = [array for array, _ in multiplicity.values()]
    weights = np.repeat(
        np.array([count for _, count in multiplicity.values()], dtype=np.float64),
        [len(array) for array in arrays],
    )
    return np.bincount(np.concatenate(arrays), weights=weights, minlength=num_keys)


def guarantee_bound(counts: np.ndarray, guarantee: dict) -> float:
    """``A * F1res(k) / (m - B*k)`` on the true counts."""
    k = int(guarantee["k"])
    top = float(np.partition(counts, -k)[-k:].sum()) if k < counts.size else counts.sum()
    residual = float(counts.sum()) - top
    return guarantee["a"] * residual / (guarantee["num_counters"] - guarantee["b"] * k)


class Cut(NamedTuple):
    """True counts at one snapshot cut, with the facts every check needs."""

    counts: np.ndarray
    total: float
    bound: float
    #: Key ids of the largest true counts, descending.
    leaders: np.ndarray


@dataclass
class Verdict:
    """Outcome of checking answers: failures, with the worst error seen."""

    checked: int = 0
    #: Answers with at least one failure (an answer can fail several ways).
    failed_ops: int = 0
    failures: list[str] = field(default_factory=list)
    max_error: float = 0.0

    def fail(self, message: str) -> None:
        self.failures.append(message)


class StreamOracle:
    """The acked chunk sequence, and true counts at any snapshot cut."""

    @classmethod
    def for_inputs(cls, inputs, num_shards: int = 2) -> StreamOracle:
        n = inputs.workload.num_keys
        item_keys = np.arange(n) if inputs.table is None else inputs.table
        return cls(inputs.key_id, n, num_shards, item_keys)

    def __init__(self, key_ids_of_items, num_keys: int, num_shards: int, item_keys) -> None:
        self.num_keys = num_keys
        #: Shard that owns each key id, by the service's placement rule.
        self.shard_of_key = shard_array(fingerprint_array(item_keys), num_shards)
        self.num_shards = num_shards
        self.key_id = key_ids_of_items
        self.acked: list[np.ndarray] = []
        self._shard_tokens: dict[int, np.ndarray] = {}
        self._cuts: dict[tuple, Cut] = {}

    def ack(self, chunk: np.ndarray) -> None:
        self.acked.append(chunk)

    @property
    def tokens(self) -> int:
        return sum(len(chunk) for chunk in self.acked)

    def _per_shard(self, chunk: np.ndarray) -> np.ndarray:
        cached = self._shard_tokens.get(id(chunk))
        if cached is None:
            cached = np.bincount(self.shard_of_key[chunk], minlength=self.num_shards)
            self._shard_tokens[id(chunk)] = cached
        return cached

    def cut(self, response: dict) -> Cut:
        """True counts (and derived facts) of the snapshot behind ``response``."""
        guarantee = response["guarantee"]
        key = (
            tuple(float(length) for length in response["shard_lengths"]),
            tuple(sorted(guarantee.items())),
        )
        cut = self._cuts.get(key)
        if cut is None:
            counts = self._counts(key[0])
            total = float(counts.sum())
            # The largest true counts, descending: enough to find the
            # largest key a top-k answer left out.
            size = min(counts.size, 4 * int(guarantee["k"]) + 16)
            leaders = np.argpartition(counts, -size)[-size:]
            leaders = leaders[np.argsort(-counts[leaders], kind="stable")]
            bound = guarantee_bound(counts, guarantee) + 1e-9 * max(total, 1.0)
            cut = self._cuts[key] = Cut(counts, total, bound, leaders)
        return cut

    def _counts(self, shard_lengths: tuple[float, ...]) -> np.ndarray:
        cumulative = np.cumsum(
            np.vstack([np.zeros(self.num_shards)] + [self._per_shard(c) for c in self.acked]),
            axis=0,
        )
        counts = np.zeros(self.num_keys)
        for shard, length in enumerate(shard_lengths):
            prefix = int(np.searchsorted(cumulative[:, shard], length))
            if prefix >= len(cumulative) or cumulative[prefix, shard] != length:
                raise OracleError(
                    f"shard {shard} length {length} is not a prefix of the acked stream"
                )
            shard_counts = exact_counts(self.acked[:prefix], self.num_keys)
            mask = self.shard_of_key == shard
            counts[mask] = shard_counts[mask]
        return counts

    def check(self, response: dict, verdict: Verdict) -> None:
        """Check one point or top-k answer against its snapshot's true counts."""
        verdict.checked += 1
        before = len(verdict.failures)
        self._check(response, verdict)
        if len(verdict.failures) > before:
            verdict.failed_ops += 1

    def _check(self, response: dict, verdict: Verdict) -> None:
        try:
            cut = self.cut(response)
        except OracleError as error:
            verdict.fail(str(error))
            return
        if abs(float(response["stream_length"]) - cut.total) > 1e-6:
            verdict.fail(f"stream_length {response['stream_length']} != acked {cut.total}")
        elif "top_k" in response:
            self._check_top_k(response["top_k"], cut, verdict)
        else:
            self._check_estimate(response["item"], response["estimate"], cut, verdict)

    def _check_estimate(self, item, estimate: float, cut: Cut, verdict: Verdict) -> None:
        key = self.key_id(item)
        if key < 0:
            verdict.fail(f"answer names an item never sent: {item!r}")
            return
        error = abs(float(estimate) - cut.counts[key])
        verdict.max_error = max(verdict.max_error, error / cut.total)
        if error > cut.bound:
            verdict.fail(
                f"estimate {estimate} of {item!r} is {error:.1f} from the true "
                f"{cut.counts[key]:.0f}, beyond the advertised bound {cut.bound:.1f}"
            )

    def _check_top_k(self, entries, cut: Cut, verdict: Verdict) -> None:
        if not entries:
            verdict.fail("empty top-k answer")
            return
        returned = set()
        for item, estimate in entries:
            self._check_estimate(item, estimate, cut, verdict)
            returned.add(self.key_id(item))
        floor = min(estimate for _, estimate in entries)
        missed = next((int(key) for key in cut.leaders if int(key) not in returned), None)
        if missed is not None and cut.counts[missed] > floor + cut.bound:
            verdict.fail(
                f"top-k omits key {missed} with true count {cut.counts[missed]:.0f} > "
                f"smallest returned estimate {floor:.1f} + bound {cut.bound:.1f}"
            )
