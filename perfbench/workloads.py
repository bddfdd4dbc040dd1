"""Workloads, as ``manifest.json`` defines them, and their seeded token streams.

Every input is derived from ``--seed`` alone: the key universe, the
Zipf ranking (a seeded permutation of the keys), the warm-up prefix, the
pool of timed chunks and the sample of point-queried keys.  The service
only ever sees the generated tokens.

Keys are addressed by a dense *key id* in ``[0, num_keys)``.  For
``ints`` workloads the key id is the token itself; for ``flows``
workloads it indexes a table of 5-tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


#: Keys in the point-query sample (the hottest ones, by rank).
POINT_KEYS = 4_096
#: Zipf chunks appended to the warm-up after the key sweep.
WARMUP_ZIPF_CHUNKS = 8


#: Defines each workload: its reason and its input parameters.
MANIFEST = Path(__file__).with_name("manifest.json")


@dataclass(frozen=True)
class Workload:
    """One traffic mix: key shape, skew, chunking, wire encoding, loop."""

    name: str
    why: str
    keys: str  # "flows" (5-tuples) or "ints"
    num_keys: int
    alpha: float
    chunk_tokens: int
    binary: bool
    #: Tokens per second of the open-loop producer; None = closed loop.
    open_rate: float | None
    #: ``repro serve --snapshot-interval`` (0 = snapshots on demand only).
    snapshot_interval: float
    #: Distinct Zipf chunks pre-generated for the timed phase (cycled).
    pool_chunks: int
    #: Tokens in the crash image's WAL tail: sized so that a restart's
    #: replay takes about as long as interpreter start (~0.5 s).
    crash_tail_tokens: int

    @classmethod
    def from_manifest(cls, name: str, entry: dict) -> Workload:
        params = entry["params"]
        return cls(
            name=name,
            why=entry["why"],
            keys=params["keys"],
            num_keys=params["num_keys"],
            alpha=params["zipf_alpha"],
            chunk_tokens=params["chunk_tokens"],
            binary=params["wire"] == "binary-v3",
            open_rate=params["open_rate_tok_s"],
            snapshot_interval=params["snapshot_interval_s"],
            pool_chunks=params["pool_chunks"],
            crash_tail_tokens=params["crash_tail_tokens"],
        )


WORKLOADS: dict[str, Workload] = {
    name: Workload.from_manifest(name, entry)
    for name, entry in json.loads(MANIFEST.read_text(encoding="utf-8"))["workloads"].items()
}


def _flow_table(rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` distinct flow 5-tuples (src ip, dst ip, sport, dport, proto).

    The source address encodes the index, so the tuples are distinct by
    construction; the other fields are seeded noise.
    """
    dst_hosts = rng.integers(0, 1 << 16, size=count)
    sports = rng.integers(1024, 65536, size=count)
    dports = rng.choice(np.array([53, 80, 123, 443, 8080, 8443]), size=count)
    protos = rng.choice(np.array([6, 17]), size=count)
    return [
        (
            f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}",
            f"192.168.{host >> 8}.{host & 255}",
            sport,
            dport,
            proto,
        )
        for index, host, sport, dport, proto in zip(
            range(count),
            dst_hosts.tolist(),
            sports.tolist(),
            dports.tolist(),
            protos.tolist(),
        )
    ]


class Inputs:
    """The seeded token streams of one workload, as key-id arrays."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        rng = np.random.default_rng([seed, workload.num_keys, workload.chunk_tokens])
        n = workload.num_keys
        self.table = _flow_table(rng, n) if workload.keys == "flows" else None
        self._index = (
            {} if self.table is None else {key: i for i, key in enumerate(self.table)}
        )
        #: rank -> key id; rank 0 is the hottest key.
        self.rank_to_key = rng.permutation(n)
        weights = np.arange(1, n + 1, dtype=np.float64) ** -workload.alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._cdf[-1] = 1.0
        size = workload.chunk_tokens
        self.pool = [self._zipf(rng, size) for _ in range(workload.pool_chunks)]
        # The warm-up sweeps every key the timed phase will send, so both
        # codecs hold the timed key space before timing starts.
        sweep = rng.permutation(np.unique(np.concatenate(self.pool)))
        self.warmup = [sweep[i : i + size] for i in range(0, sweep.size, size)]
        self.warmup += [self._zipf(rng, size) for _ in range(WARMUP_ZIPF_CHUNKS)]
        #: Fixed sample of point-queried key ids: the hottest ``POINT_KEYS``.
        #: It reaches past the counter budget, so the worst sampled error
        #: is close to the summary's worst error on every seed.
        self.point_keys = self.rank_to_key[: min(n, POINT_KEYS)]
        self._pool_items = [self.items(ids) for ids in self.pool]

    def _zipf(self, rng: np.random.Generator, size: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, rng.random(size), side="right")
        return self.rank_to_key[np.minimum(ranks, len(self._cdf) - 1)]

    def items(self, ids: np.ndarray) -> list:
        """The tokens a client sends for a key-id array."""
        if self.table is None:
            return ids.tolist()
        table = self.table
        return [table[key] for key in ids.tolist()]

    def pool_items(self, index: int) -> list:
        """Tokens of the ``index``-th timed chunk (the pool is cycled)."""
        return self._pool_items[index % len(self._pool_items)]

    def pool_ids(self, index: int) -> np.ndarray:
        return self.pool[index % len(self.pool)]

    def key_id(self, item: object) -> int:
        """Inverse of :meth:`items` for one answer item (-1 if unknown)."""
        if self.table is None:
            return int(item) if isinstance(item, int) and 0 <= item < len(self._cdf) else -1
        return self._index.get(item, -1)

    def item(self, key: int) -> object:
        return int(key) if self.table is None else self.table[key]
