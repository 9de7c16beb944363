"""Deterministic fan-out of one user-facing 64-bit seed into per-subsystem RNGs.

Every random choice in the toolkit flows from a single seed through
``spawn_rng(seed, stream, counter)``.  ``stream`` identifies the consuming
subsystem (constants below) and ``counter`` separates repeated uses inside
one subsystem.  The derivation is
``numpy.random.SeedSequence(seed, spawn_key=(stream, counter))``, so runs
with identical (seed, stream, counter) reproduce identical draws.
"""

from __future__ import annotations

import numpy as np

STREAM_UNITARY = 1
STREAM_SAMPLER = 2
STREAM_BASELINE = 3
STREAM_LOCAL_SEARCH = 4
STREAM_GRAPH = 5


def spawn_rng(seed: int, stream: int, counter: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, stream, counter) triple."""
    seq = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF,
                                 spawn_key=(int(stream), int(counter)))
    return np.random.default_rng(seq)
