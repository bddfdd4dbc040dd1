"""Partitioning a stream across multiple sites.

Three strategies are provided because they stress the merge guarantee in
different ways:

* ``contiguous`` -- each site sees a time slice; heavy-hitter sets can differ
  wildly between slices (e.g. trending query terms), which is the regime
  Theorem 11's guarantee is designed for.
* ``round_robin`` -- each site sees a statistically identical sub-stream.
* ``hash`` -- each item is owned by exactly one site, so the merged summary's
  error comes purely from the per-site summaries (no cross-site collisions);
  included as an easier baseline.
"""

from __future__ import annotations

from typing import Callable, List

from repro.algorithms.base import Item
from repro.engine.codec import EncodedChunk, partition_chunk
from repro.sketches.hashing import fingerprint_array, shard_array
from repro.streams.stream import Stream

PARTITION_STRATEGIES = ("contiguous", "round_robin", "hash")


def hash_partition(stream: Stream, num_sites: int) -> List[Stream]:
    """Partition by item identity: every occurrence of an item goes to one site.

    Placement is :func:`repro.sketches.hashing.shard_for` -- the same rule
    the in-process :class:`~repro.service.sharding.ShardedSummarizer` uses,
    so an item lands on the same owner whether sharding happens inside one
    service or across remote sites.  The whole stream is routed with one
    vectorised :func:`~repro.sketches.hashing.shard_array` call over its
    fingerprint column (bit-identical placement to per-item ``shard_for``).
    """
    if num_sites < 1:
        raise ValueError(f"num_sites must be >= 1, got {num_sites}")
    buckets: List[List[Item]] = [[] for _ in range(num_sites)]
    if len(stream.items):
        site_ids = shard_array(fingerprint_array(stream.items), num_sites)
        for item, site in zip(stream.items, site_ids.tolist()):
            buckets[site].append(item)
    return [
        Stream(bucket, name=f"{stream.name}(hash site {index})")
        for index, bucket in enumerate(buckets)
    ]


def hash_partition_chunk(chunk: EncodedChunk, num_sites: int) -> List[EncodedChunk]:
    """Hash-partition an encoded columnar chunk into per-site sub-chunks.

    The columnar twin of :func:`hash_partition`, delegating to the shared
    fan-out kernel :func:`repro.engine.codec.partition_chunk` -- the same
    routine the in-process service shards with, so in-process and
    cross-site placement cannot drift apart.  Every site's sub-chunk shares
    the original codec (and therefore its vocabulary -- use
    :func:`repro.serialization.dump_chunk_bytes` to ship a sub-chunk, vocabulary
    included, to a remote site).  Sites that receive no tokens get an empty
    chunk so the result always has ``num_sites`` entries, mirroring
    :func:`hash_partition`.
    """
    if num_sites < 1:
        raise ValueError(f"num_sites must be >= 1, got {num_sites}")
    return partition_chunk(chunk, num_sites)


def partition_stream(
    stream: Stream, num_sites: int, strategy: str = "contiguous"
) -> List[Stream]:
    """Split ``stream`` across ``num_sites`` sites with the chosen strategy."""
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
        )
    if strategy == "contiguous":
        return stream.split(num_sites)
    if strategy == "round_robin":
        return stream.interleave_split(num_sites)
    return hash_partition(stream, num_sites)


def make_partitioner(strategy: str) -> Callable[[Stream, int], List[Stream]]:
    """Return a partitioning function for the given strategy name."""
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
        )
    return lambda stream, num_sites: partition_stream(stream, num_sites, strategy)
