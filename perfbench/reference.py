"""A fixed reference computation whose time tracks the machine's current speed.

It mixes the kinds of work the workloads do: interpreted Python with small
objects, small dense matrix products, and a pass over a 32 MB array. It uses
no code of the package, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_SMALL = np.random.default_rng(0).random((40, 40))
_LARGE = np.linspace(0.0, 1.0, 4_000_000)       # 32 MB


def _interpreted() -> int:
    total = 0
    items = []
    for i in range(25_000):
        items.append((i, i % 7))
        total += items[-1][1] * i
    return total + sum(b for (_, b) in sorted(items, key=lambda p: (-p[1], p[0]))[:100])


def _small_matrices() -> float:
    a = _SMALL
    for _ in range(1500):
        a = np.tanh(a @ a.T * 1e-2)
    return float(a[0, 0])


def _streaming() -> float:
    return float(np.einsum("i,i->", _LARGE, np.sqrt(_LARGE + 1.0)))


def seconds() -> float:
    """Wall time of one run of the reference computation."""
    start = perf_counter()
    _interpreted()
    _small_matrices()
    _streaming()
    return perf_counter() - start
