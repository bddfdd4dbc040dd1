"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.algorithms.frequent import Frequent
from repro.algorithms.space_saving import SpaceSaving, SpaceSavingHeap
from repro.analysis import witness as lock_witness
from repro.engine.codec import TokenCodec
from repro.streams.generators import heavy_plus_noise_stream, uniform_stream, zipf_stream


@pytest.fixture(autouse=True)
def _lock_order_witness():
    """Opt-in runtime deadlock-potential detection (REPRO_LOCK_WITNESS=1).

    When the env flag is set, every ``threading.Lock()`` created during a
    test is instrumented: per-thread acquisition ordering is recorded and
    any ordering cycle (or same-thread re-acquire) fails the run with the
    two conflicting stacks.  The nightly CI matrix runs the stress tier
    under this flag; locally: ``REPRO_LOCK_WITNESS=1 pytest tests/``.
    """
    if not lock_witness.witness_enabled_by_env():
        yield None
        return
    active = lock_witness.LockWitness()
    with lock_witness.installed_witness(active):
        yield active


@pytest.fixture
def encode():
    """``encode(items, weights=None)``: a token list as an ``EncodedChunk``.

    The shard layer and the window ring take admitted chunks only.  One
    codec serves the whole test, as one server codec feeds every shard;
    interning is not thread-safe, so concurrent producers each need a
    codec of their own.
    """
    return TokenCodec().encode_chunk


@pytest.fixture(scope="session")
def zipf_medium():
    """A moderately skewed Zipf stream reused by several guarantee tests."""
    return zipf_stream(num_items=2_000, alpha=1.2, total=30_000, seed=101)


@pytest.fixture(scope="session")
def zipf_flat():
    """A weakly skewed Zipf stream (hard case: big residual tail)."""
    return zipf_stream(num_items=2_000, alpha=0.8, total=30_000, seed=102)


@pytest.fixture(scope="session")
def uniform_small():
    """A uniform stream (no heavy hitters at all)."""
    return uniform_stream(num_items=1_000, total=10_000, seed=103)


@pytest.fixture(scope="session")
def heavy_noise():
    """A stream with 10 genuinely heavy items and a uniform noise tail."""
    return heavy_plus_noise_stream(
        num_heavy=10,
        heavy_fraction=0.7,
        num_noise_items=2_000,
        total=20_000,
        seed=104,
    )


@pytest.fixture(params=["frequent", "spacesaving", "spacesaving_heap"])
def counter_factory(request):
    """Factory fixture yielding each counter algorithm constructor in turn."""
    factories = {
        "frequent": lambda m: Frequent(num_counters=m),
        "spacesaving": lambda m: SpaceSaving(num_counters=m),
        "spacesaving_heap": lambda m: SpaceSavingHeap(num_counters=m),
    }
    return factories[request.param]
