"""Machine-speed reference for the benchmark's job times.

On a shared host the CPU's speed swings by up to 2x in states lasting from
seconds to minutes, and every kind of code slows together: timed back to back,
the lossy sector enumeration and the clique local search each vary by about
a third (quartile spread over median) while their ratio varies by 7%.  So
each job's wall time is divided by the time this fixed kernel takes just
before and just after the job, and multiplied by ``NOMINAL_S``, giving
seconds at a fixed reference speed.

The kernel is the benchmark's own code and calls nothing in the program, so
a change to the program cannot move it.  It mixes what the program spends
its time on: small complex eigenvalue problems (the power-trace hafnian),
small numpy array arithmetic, and Python loops over sets and dicts (clique
search, pattern bookkeeping).
"""

from __future__ import annotations

import time

import numpy as np

# Duration of one ``kernel()`` call at the fastest speed seen on the 2-core
# development host; it only sets the scale of the reported seconds.
NOMINAL_S = 0.016

_RNG = np.random.default_rng(20221027)
_MATRICES = [_RNG.standard_normal((8, 8)) + 1j * _RNG.standard_normal((8, 8))
             for _ in range(6)]
_VECTOR = _RNG.standard_normal(256)
_NEIGHBOURS = [frozenset(int(x) for x in _RNG.choice(64, 24, replace=False))
               for _ in range(64)]


def kernel() -> float:
    return sum(_body() for _ in range(8))


def _body() -> float:
    acc = 0.0
    for m in _MATRICES:
        acc += float(np.linalg.eigvals(m @ m.T).real.sum())
    v = _VECTOR
    for _ in range(40):
        v = np.tanh(v * 0.9 + 0.1) @ np.ones((256, 4)) @ np.ones((4, 256)) / 1024
    acc += float(v.sum())
    seen: dict[int, int] = {}
    for i in range(64):
        common = set(_NEIGHBOURS[i])
        for j in range(i + 1, min(i + 12, 64)):
            common &= _NEIGHBOURS[j] | {i, j}
            seen[len(common)] = seen.get(len(common), 0) + 1
    return acc + sum(seen.values())


def measure() -> float:
    """Seconds one ``kernel()`` call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
